package runner

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"satin/internal/stats"
)

// Metrics is one trial's named measurements, in report order. A slice, not
// a map: the sweep's aggregate table lists metrics in the order the first
// successful trial emitted them, which must not depend on map iteration.
type Metrics []Sample

// Sample is one named measurement.
type Sample struct {
	Name  string
	Value float64
}

// Add appends a measurement and returns the extended Metrics, in the
// append style.
func (m Metrics) Add(name string, value float64) Metrics {
	return append(m, Sample{Name: name, Value: value})
}

// Extend appends every sample of other, preserving order. It lets an
// experiment compose its base metrics with an optional add-on block (e.g.
// profiler attribution) without disturbing the report order of either.
func (m Metrics) Extend(other Metrics) Metrics {
	return append(m, other...)
}

// Failure records a trial that returned an error or panicked.
type Failure struct {
	Seed uint64
	Err  error
}

// Sweep is the deterministic aggregate of a multi-seed experiment: for each
// metric the per-seed samples in seed order, plus any failed seeds. Two
// sweeps over the same seeds render byte-identically regardless of how many
// workers produced them.
type Sweep struct {
	// Name labels the experiment (used in Render's header).
	Name string
	// Seeds lists the seeds of successful trials, ascending.
	Seeds []uint64
	// Failures lists failed trials in seed order.
	Failures []Failure

	keys    []string
	samples map[string][]float64
}

// NewSweep returns an empty sweep ready for Add. campaign.MergeSweeps
// builds one from checkpointed cell results, and a closure sweep builds one
// from runner.Run's results. Callers must add trials in seed order to keep
// the determinism guarantee.
func NewSweep(name string) *Sweep {
	return &Sweep{Name: name, samples: map[string][]float64{}}
}

// Add records one trial: a Failure if err is non-nil, otherwise its metrics.
// Metric columns appear in the order the first successful trial emitted
// them; trials must arrive in seed order.
func (s *Sweep) Add(seed uint64, m Metrics, err error) {
	if err != nil {
		s.Failures = append(s.Failures, Failure{Seed: seed, Err: err})
		return
	}
	s.Seeds = append(s.Seeds, seed)
	for _, sample := range m {
		if _, seen := s.samples[sample.Name]; !seen {
			s.keys = append(s.keys, sample.Name)
		}
		s.samples[sample.Name] = append(s.samples[sample.Name], sample.Value)
	}
}

// Trials reports the total number of trials, including failures.
func (s *Sweep) Trials() int { return len(s.Seeds) + len(s.Failures) }

// Keys returns the metric names in report order.
func (s *Sweep) Keys() []string { return append([]string(nil), s.keys...) }

// Samples returns the per-seed values of one metric, in seed order, or nil
// for an unknown metric.
func (s *Sweep) Samples(key string) []float64 {
	return append([]float64(nil), s.samples[key]...)
}

// Dist returns the distribution summary of one metric over all successful
// seeds.
func (s *Sweep) Dist(key string) stats.Dist { return stats.NewDist(s.samples[key]) }

// WriteCSV exports the per-seed samples as `experiment,metric,seed,value`
// rows (with a header). Rows are ordered metric-major in report order,
// seeds ascending within a metric, so output is byte-identical for any
// worker count. Failed seeds contribute `experiment,__failed__,seed,1`
// rows at the end.
func (s *Sweep) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"experiment", "metric", "seed", "value"}); err != nil {
		return fmt.Errorf("runner: writing sweep CSV: %w", err)
	}
	for _, key := range s.keys {
		for i, v := range s.samples[key] {
			rec := []string{s.Name, key, strconv.FormatUint(s.Seeds[i], 10), strconv.FormatFloat(v, 'g', -1, 64)}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("runner: writing sweep CSV: %w", err)
			}
		}
	}
	for _, f := range s.Failures {
		if err := cw.Write([]string{s.Name, "__failed__", strconv.FormatUint(f.Seed, 10), "1"}); err != nil {
			return fmt.Errorf("runner: writing sweep CSV: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("runner: writing sweep CSV: %w", err)
	}
	return nil
}

// Render prints the aggregate table: one row per metric with mean, min,
// quartiles, p90, and max over seeds, then any failed seeds.
func (s *Sweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d seeds", s.Name, s.Trials())
	if len(s.Seeds) > 0 {
		fmt.Fprintf(&b, " (%d..%d)", s.Seeds[0], s.Seeds[len(s.Seeds)-1])
	}
	if len(s.Failures) > 0 {
		fmt.Fprintf(&b, ", %d FAILED", len(s.Failures))
	}
	b.WriteString("\n")
	tbl := stats.NewTable("Metric", "Mean", "Min", "P25", "P50", "P75", "P90", "Max")
	for _, key := range s.keys {
		d := s.Dist(key)
		tbl.AddRow(key,
			fmt.Sprintf("%.4g", d.Mean),
			fmt.Sprintf("%.4g", d.Min),
			fmt.Sprintf("%.4g", d.P25),
			fmt.Sprintf("%.4g", d.P50),
			fmt.Sprintf("%.4g", d.P75),
			fmt.Sprintf("%.4g", d.P90),
			fmt.Sprintf("%.4g", d.Max))
	}
	b.WriteString(tbl.String())
	for _, f := range s.Failures {
		fmt.Fprintf(&b, "seed %d FAILED: %v\n", f.Seed, f.Err)
	}
	return b.String()
}
