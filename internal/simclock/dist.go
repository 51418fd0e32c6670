package simclock

import (
	"fmt"
	"math"
	"time"
)

// Dist is a bounded duration distribution characterized by its minimum,
// mean, and maximum — the three values the SATIN paper reports for every
// timing quantity (Tables I and II). Draws are piecewise uniform on
// [Min, Avg] and [Avg, Max] with the branch probability chosen so the
// expectation equals Avg exactly:
//
//	P(low branch) = (Max-Avg) / (Max-Min)
//
// This keeps calibrated simulations' sample means convergent to the paper's
// reported averages while respecting the reported extremes.
type Dist struct {
	Min time.Duration
	Avg time.Duration
	Max time.Duration
}

// Validate reports an error unless Min <= Avg <= Max and Min >= 0.
func (d Dist) Validate() error {
	if d.Min < 0 {
		return fmt.Errorf("simclock: Dist min %v is negative", d.Min)
	}
	if d.Avg < d.Min || d.Avg > d.Max {
		return fmt.Errorf("simclock: Dist not ordered: min %v, avg %v, max %v", d.Min, d.Avg, d.Max)
	}
	return nil
}

// Draw samples one duration, rounded to the nearest nanosecond. A degenerate
// distribution (Min == Max) always returns Min.
//
// Each product is converted explicitly before the add: a conversion rounds,
// so no compiler fuses the two into one multiply-add (arm64's FMADD rounds
// once where amd64 rounds twice), and every architecture draws the same
// bits. make fma-check scans the arm64 assembly for fused instructions.
func (d Dist) Draw(g *RNG) time.Duration {
	if d.Max == d.Min {
		return d.Min
	}
	pLow := float64(d.Max-d.Avg) / float64(d.Max-d.Min)
	var v float64
	if g.Float64() < pLow {
		v = float64(d.Min) + float64(g.Float64()*float64(d.Avg-d.Min))
	} else {
		v = float64(d.Avg) + float64(g.Float64()*float64(d.Max-d.Avg))
	}
	return time.Duration(math.Round(v))
}

// FloatDist is the float-valued counterpart of Dist, used for quantities too
// fine for nanosecond quantization — chiefly per-byte inspection rates, which
// the paper reports at ~6.7–10.8 ns/byte (Table I). Sampling is the same
// mean-preserving piecewise-uniform scheme as Dist.
type FloatDist struct {
	Min float64
	Avg float64
	Max float64
}

// Validate reports an error unless Min <= Avg <= Max and Min >= 0.
func (d FloatDist) Validate() error {
	if d.Min < 0 {
		return fmt.Errorf("simclock: FloatDist min %v is negative", d.Min)
	}
	if d.Avg < d.Min || d.Avg > d.Max {
		return fmt.Errorf("simclock: FloatDist not ordered: min %v, avg %v, max %v", d.Min, d.Avg, d.Max)
	}
	return nil
}

// Draw samples one value. Its products are converted explicitly, as in
// Dist.Draw, so no architecture fuses them into the add.
func (d FloatDist) Draw(g *RNG) float64 {
	if d.Max == d.Min {
		return d.Min
	}
	pLow := (d.Max - d.Avg) / (d.Max - d.Min)
	if g.Float64() < pLow {
		return d.Min + float64(g.Float64()*(d.Avg-d.Min))
	}
	return d.Avg + float64(g.Float64()*(d.Max-d.Avg))
}

// Exact returns a degenerate distribution that always draws v. Useful in
// tests that need timing to be a fixed constant.
func Exact(v time.Duration) Dist { return Dist{Min: v, Avg: v, Max: v} }

// Seconds builds a Dist from floating-point seconds, matching how the paper
// reports quantities (e.g. 2.61e-4 s).
func Seconds(min, avg, max float64) Dist {
	return Dist{
		Min: time.Duration(min * float64(time.Second)),
		Avg: time.Duration(avg * float64(time.Second)),
		Max: time.Duration(max * float64(time.Second)),
	}
}
