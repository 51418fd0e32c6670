package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"satin/internal/profile"
	"satin/internal/runner"
	"satin/internal/stats"
)

// Profiled sweeps: the detection experiment rerun with the causal span
// profiler attached to every seed's rig. Per-seed summaries are collected
// in a seed-indexed slice and merged in seed order, so the aggregate
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
// summary over every successful seed, both deterministic in the worker
// count. It stays a runner sweep over a closure rather than a campaign: it
// needs each seed's profile.Summary, which a campaign result file does not
// hold.
func RunDetectionProfileSweep(ctx context.Context, cfg DetectionConfig, seeds, workers int) (*runner.Sweep, profile.Summary, error) {
	if seeds < 1 {
		return nil, profile.Summary{}, fmt.Errorf("experiment: profile sweep needs at least 1 seed, got %d", seeds)
	}
	base := cfg.Seed
	// Seed-indexed, written concurrently by the pool (one distinct slot per
	// trial) and read only after the sweep returns.
	perSeed := make([]*profile.Summary, seeds)
	var mu sync.Mutex
	sweep, err := runner.RunSweep(ctx, "SATIN detection, profiled (§VI-B1)", base, seeds, workers,
		func(_ context.Context, seed uint64) (runner.Metrics, error) {
			c := cfg
			c.Seed = seed
			c.Profile = true
			res, err := RunDetection(c)
			if err != nil {
				return nil, err
			}
			if res.Profile == nil {
				return nil, fmt.Errorf("experiment: profiled run for seed %d produced no summary", seed)
			}
			mu.Lock()
			perSeed[seed-base] = res.Profile
			mu.Unlock()
			return DetectionMetrics(res).Extend(ProfileMetrics(*res.Profile)), nil
		})
	if err != nil {
		return nil, profile.Summary{}, err
	}
	ordered := make([]profile.Summary, 0, seeds)
	for _, s := range perSeed {
		if s != nil {
			ordered = append(ordered, *s)
		}
	}
	return sweep, profile.Merge(ordered), nil
}

// durationsToSeconds converts a duration pool for stats aggregation.
func durationsToSeconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}
