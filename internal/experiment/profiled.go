package experiment

import (
	"context"
	"fmt"
	"time"

	"satin/internal/profile"
	"satin/internal/runner"
	"satin/internal/stats"
)

// Profiled sweeps: the detection experiment rerun with the causal span
// profiler attached to every seed's rig. Each seed's summary comes back in
// its pool result and the summaries merge in seed order, so the aggregate
// attribution — like every other sweep output — is byte-identical for any
// worker count.

// ProfileMetrics flattens one seed's span attribution into sweep samples.
func ProfileMetrics(s profile.Summary) runner.Metrics {
	var normal, scan, sw float64
	for _, c := range s.Cores {
		normal += c.Normal.Seconds()
		scan += c.Scan.Seconds()
		sw += c.Switch.Seconds()
	}
	total := normal + scan + sw
	frac := func(x float64) float64 {
		if total == 0 {
			return 0
		}
		return x / total
	}
	m := runner.Metrics{}.Add("scan residency", frac(scan))
	m = m.Add("switch residency", frac(sw))
	m = m.Add("world switches", float64(s.WorldSwitches))
	m = m.Add("hash chunks", float64(s.Chunks))
	if len(s.Windows) > 0 {
		m = m.Add("evasion window p50 (ms)", stats.NewDist(durationsToSeconds(s.Windows)).P50*1e3)
	}
	if len(s.Latencies) > 0 {
		m = m.Add("detection latency p50 (s)", stats.NewDist(durationsToSeconds(s.Latencies)).P50)
	}
	if margin, ok := s.RaceMargin(); ok {
		m = m.Add("race margin (ms)", margin.Seconds()*1e3)
	}
	return m
}

// RunDetectionProfileSweep runs the §VI-B1 detection experiment with the
// profiler attached for seeds cfg.Seed..cfg.Seed+seeds-1 across the worker
// pool. It returns the per-seed metric sweep plus the merged attribution
// summary over every successful seed, both built in seed order and so
// deterministic in the worker count. It runs a Go closure on runner.Run
// rather than a campaign: it needs each seed's profile.Summary, which a
// campaign result file does not hold.
func RunDetectionProfileSweep(ctx context.Context, cfg DetectionConfig, seeds, workers int) (*runner.Sweep, profile.Summary, error) {
	if seeds < 1 {
		return nil, profile.Summary{}, fmt.Errorf("experiment: profile sweep needs at least 1 seed, got %d", seeds)
	}
	results, err := runner.Run(ctx, seeds, workers, func(_ context.Context, i int) (DetectionResult, error) {
		c := cfg
		c.Seed += uint64(i)
		c.Profile = true
		res, err := RunDetection(c)
		if err == nil && res.Profile == nil {
			err = fmt.Errorf("experiment: profiled run for seed %d produced no summary", c.Seed)
		}
		return res, err
	})
	if err != nil {
		return nil, profile.Summary{}, fmt.Errorf("experiment: profile sweep: %w", err)
	}
	sweep := runner.NewSweep("SATIN detection, profiled (§VI-B1)")
	var summaries []profile.Summary
	for _, r := range results {
		var m runner.Metrics
		if r.Err == nil {
			m = DetectionMetrics(r.Value).Extend(ProfileMetrics(*r.Value.Profile))
			summaries = append(summaries, *r.Value.Profile)
		}
		sweep.Add(cfg.Seed+uint64(r.Index), m, r.Err)
	}
	return sweep, profile.Merge(summaries), nil
}

// durationsToSeconds converts a duration pool for stats aggregation.
func durationsToSeconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}
