// Package stats provides the summary statistics and text-table formatting
// used by every experiment in the SATIN reproduction: min/avg/max triples
// (the form of the paper's Tables I and II), five-number box-plot summaries
// with Tukey whiskers and outliers (the form of Figure 4), and fixed-width
// table rendering with the paper's scientific notation.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Every product below that meets an add is converted explicitly: a
// conversion rounds, so arm64 cannot fuse the two into one multiply-add
// where amd64 rounds twice, and every architecture prints the same
// statistics (make fma-check).

// Summary holds the basic statistics of a sample.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Std  float64 // population standard deviation
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += float64(d * d)
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

// SummarizeDurations converts ds to seconds and summarizes them.
func SummarizeDurations(ds []time.Duration) Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return Summarize(xs)
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty sample and
// panics if p is outside [0, 1].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v outside [0, 1]", p))
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted interpolates on an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// BoxPlot is a five-number summary with Tukey whiskers: the whiskers extend
// to the most extreme data points within 1.5 IQR of the quartiles, and
// anything beyond is an outlier. This is the rendering convention of the
// paper's Figure 4.
type BoxPlot struct {
	Min        float64 // smallest observation (including outliers)
	LowerWhisk float64
	Q1         float64
	Median     float64
	Q3         float64
	UpperWhisk float64
	Max        float64 // largest observation (including outliers)
	Outliers   []float64
	N          int
}

// NewBoxPlot computes the box-plot summary of xs. An empty sample yields the
// zero BoxPlot.
func NewBoxPlot(xs []float64) BoxPlot {
	if len(xs) == 0 {
		return BoxPlot{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := BoxPlot{
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Q1:     percentileSorted(sorted, 0.25),
		Median: percentileSorted(sorted, 0.50),
		Q3:     percentileSorted(sorted, 0.75),
		N:      len(sorted),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - float64(1.5*iqr)
	hiFence := b.Q3 + float64(1.5*iqr)
	b.LowerWhisk = b.Q3
	b.UpperWhisk = b.Q1
	for _, x := range sorted {
		if x >= loFence && x <= hiFence {
			if x < b.LowerWhisk {
				b.LowerWhisk = x
			}
			if x > b.UpperWhisk {
				b.UpperWhisk = x
			}
		} else {
			b.Outliers = append(b.Outliers, x)
		}
	}
	// With interpolated quartiles, the most extreme in-fence data point can
	// sit inside the box (e.g. four points with one far outlier); whiskers
	// are conventionally drawn no shorter than the box edges.
	if b.UpperWhisk < b.Q3 {
		b.UpperWhisk = b.Q3
	}
	if b.LowerWhisk > b.Q1 {
		b.LowerWhisk = b.Q1
	}
	return b
}

// Dist is a Summary extended with the percentiles multi-seed sweeps report:
// detection/evasion rates and overheads are distributions over seeds, so a
// mean alone (the single-seed form of Tables I–II) is not enough to state
// the paper's claims with confidence.
type Dist struct {
	Summary
	P25 float64
	P50 float64
	P75 float64
	P90 float64
}

// NewDist computes the distribution summary of xs. An empty sample yields
// the zero Dist.
func NewDist(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Dist{
		Summary: Summarize(xs),
		P25:     percentileSorted(sorted, 0.25),
		P50:     percentileSorted(sorted, 0.50),
		P75:     percentileSorted(sorted, 0.75),
		P90:     percentileSorted(sorted, 0.90),
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// RelErr returns |got-want| / |want|. It reports 0 when both are zero and
// +Inf when only want is zero, so callers can threshold it directly.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
