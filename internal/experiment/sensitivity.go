package experiment

import (
	"context"
	"fmt"

	"satin/internal/faultinject"
	"satin/internal/runner"
	"satin/internal/stats"
)

// Sensitivity sweep: how fragile is the paper's 10/10 detection result when
// hardware timing drifts? Each magnitude m maps to faultinject.ScaledPlan(m)
// — all cores slowed to 1/(1+m) of calibration plus proportional jitter,
// switch spikes, and interrupt delays — and the §VI-B1 detection experiment
// reruns across N seeds under that plan. Slowing the secure side is
// one-sided: the evader's recovery runs in the normal world at calibrated
// speed, so rising magnitude widens its window and detection probability
// can only degrade. The sweep charts where the Equation 1/2 race flips.

// SensitivityConfig tunes the sweep.
type SensitivityConfig struct {
	// Magnitudes are the perturbation magnitudes to chart, typically
	// starting at 0 (the unperturbed calibration).
	Magnitudes []float64
	// Seeds is how many independent seeds to run per magnitude.
	Seeds int
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// Detection is the per-seed experiment; its Faults field is overwritten
	// per magnitude.
	Detection DetectionConfig
}

// DefaultSensitivityConfig charts five magnitudes at the paper's detection
// parameters, eight seeds each.
func DefaultSensitivityConfig() SensitivityConfig {
	return SensitivityConfig{
		Magnitudes: []float64{0, 0.5, 1, 2, 4},
		Seeds:      8,
		Detection:  DefaultDetectionConfig(),
	}
}

// SensitivityPoint aggregates one magnitude's seeds.
type SensitivityPoint struct {
	Magnitude float64
	// Detection and Evasion are the per-seed detection-rate and
	// evasion-rate distributions (evasion = 1 - detection: the fraction of
	// attacked-area checks the evader survived).
	Detection stats.Dist
	Evasion   stats.Dist
}

// SensitivityResult is the charted sweep.
type SensitivityResult struct {
	Seeds  int
	Points []SensitivityPoint
}

// RunSensitivity runs the detection experiment across cfg.Magnitudes ×
// cfg.Seeds as one batch on runner's pool: cell i runs magnitude
// i/cfg.Seeds at seed cfg.Detection.Seed + i%cfg.Seeds. Each point
// aggregates its seeds in seed order, so output is byte-identical for any
// worker count. The grid is a Go closure, not a campaign: each cell is a Go
// DetectionConfig (FullScans 4 under -quick, for one), which no campaign
// cell can carry.
func RunSensitivity(ctx context.Context, cfg SensitivityConfig) (SensitivityResult, error) {
	if len(cfg.Magnitudes) == 0 {
		return SensitivityResult{}, fmt.Errorf("experiment: sensitivity needs at least one magnitude")
	}
	if cfg.Seeds <= 0 {
		return SensitivityResult{}, fmt.Errorf("experiment: sensitivity needs seeds > 0, got %d", cfg.Seeds)
	}
	results, err := runner.Run(ctx, len(cfg.Magnitudes)*cfg.Seeds, cfg.Workers,
		func(_ context.Context, i int) (float64, error) {
			c := cfg.Detection
			c.Faults = faultinject.ScaledPlan(cfg.Magnitudes[i/cfg.Seeds])
			c.Seed += uint64(i % cfg.Seeds)
			r, err := RunDetection(c)
			if err != nil {
				return 0, err
			}
			return ratio(r.Detections, r.AttackedAreaChecks), nil
		})
	if err != nil {
		return SensitivityResult{}, fmt.Errorf("experiment: sensitivity: %w", err)
	}
	res := SensitivityResult{Seeds: cfg.Seeds}
	for m, mag := range cfg.Magnitudes {
		det := make([]float64, cfg.Seeds)
		evasion := make([]float64, cfg.Seeds)
		for s, r := range results[m*cfg.Seeds : (m+1)*cfg.Seeds] {
			if r.Err != nil {
				return SensitivityResult{}, fmt.Errorf("experiment: sensitivity mag=%g: seed %d failed: %s",
					mag, cfg.Detection.Seed+uint64(s), r.Err)
			}
			det[s], evasion[s] = r.Value, 1-r.Value
		}
		res.Points = append(res.Points, SensitivityPoint{
			Magnitude: mag,
			Detection: stats.NewDist(det),
			Evasion:   stats.NewDist(evasion),
		})
	}
	return res, nil
}

// Render prints the magnitude chart: detection probability with its
// confidence band (mean, p25–p75, min–max across seeds) and the mirror
// evasion rate.
func (r SensitivityResult) Render() string {
	tbl := stats.NewTable("Magnitude", "Detection mean", "p25..p75", "min..max", "Evasion mean")
	for _, p := range r.Points {
		tbl.AddRow(
			fmt.Sprintf("%g", p.Magnitude),
			stats.Pct(p.Detection.Mean),
			fmt.Sprintf("%s..%s", stats.Pct(p.Detection.P25), stats.Pct(p.Detection.P75)),
			fmt.Sprintf("%s..%s", stats.Pct(p.Detection.Min), stats.Pct(p.Detection.Max)),
			stats.Pct(p.Evasion.Mean),
		)
	}
	return tbl.String()
}

// FirstBreak returns the lowest magnitude whose mean detection rate fell
// below 1.0 (the paper's 10/10), or -1 if detection never degraded.
func (r SensitivityResult) FirstBreak() float64 {
	for _, p := range r.Points {
		if p.Detection.Mean < 1 {
			return p.Magnitude
		}
	}
	return -1
}
