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
	// Sweep is the full per-magnitude aggregate, for CSV export or deeper
	// inspection.
	Sweep *runner.Sweep
}

// SensitivityResult is the charted sweep.
type SensitivityResult struct {
	Seeds  int
	Points []SensitivityPoint
}

// RunSensitivity runs the detection experiment across cfg.Magnitudes ×
// cfg.Seeds. Magnitudes run serially (each is itself a multi-seed sweep on
// the worker pool); points aggregate in magnitude order, so output is
// byte-identical for any worker count. The per-magnitude sweeps are runner
// closures, not campaigns: each cell is a Go DetectionConfig (FullScans 4
// under -quick, for one), which no campaign cell can carry.
func RunSensitivity(ctx context.Context, cfg SensitivityConfig) (SensitivityResult, error) {
	if len(cfg.Magnitudes) == 0 {
		return SensitivityResult{}, fmt.Errorf("experiment: sensitivity needs at least one magnitude")
	}
	if cfg.Seeds <= 0 {
		return SensitivityResult{}, fmt.Errorf("experiment: sensitivity needs seeds > 0, got %d", cfg.Seeds)
	}
	res := SensitivityResult{Seeds: cfg.Seeds}
	for _, mag := range cfg.Magnitudes {
		mag := mag
		dc := cfg.Detection
		dc.Faults = faultinject.ScaledPlan(mag)
		sw, err := runner.RunSweep(ctx,
			fmt.Sprintf("sensitivity mag=%g", mag), dc.Seed, cfg.Seeds, cfg.Workers,
			func(_ context.Context, seed uint64) (runner.Metrics, error) {
				c := dc
				c.Seed = seed
				r, err := RunDetection(c)
				if err != nil {
					return nil, err
				}
				det := ratio(r.Detections, r.AttackedAreaChecks)
				m := runner.Metrics{}.Add("detection rate", det)
				m = m.Add("evasion rate", 1-det)
				return m.Add("area-14 checks", float64(r.AttackedAreaChecks)), nil
			})
		if err != nil {
			return SensitivityResult{}, err
		}
		if len(sw.Failures) > 0 {
			return SensitivityResult{}, fmt.Errorf("experiment: sensitivity mag=%g: seed %d failed: %s",
				mag, sw.Failures[0].Seed, sw.Failures[0].Err)
		}
		res.Points = append(res.Points, SensitivityPoint{
			Magnitude: mag,
			Detection: sw.Dist("detection rate"),
			Evasion:   sw.Dist("evasion rate"),
			Sweep:     sw,
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
