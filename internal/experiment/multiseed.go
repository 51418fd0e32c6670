package experiment

import (
	"context"
	"time"

	"satin/internal/runner"
)

// Per-seed trials. The paper reports its headline results from one run of
// one universe (10/10 detections, 0 FP/FN in §VI-B1; ~90% evasion in
// §IV-C) — statistical claims about a timing race, asserted from a single
// Monte Carlo sample. Each sweepable experiment therefore has a trial: one
// seed's run flattened to named metrics. Rerun across N seeds — as the
// cells of a one-combination campaign, see internal/campaign — the trials
// aggregate into distributions, so the reproduction can state detection
// and evasion *rates* with spread. Aggregation is in seed order and
// byte-identical for any worker count.

// DetectionMetrics flattens one seed's DetectionResult into sweep samples.
func DetectionMetrics(r DetectionResult) runner.Metrics {
	m := runner.Metrics{}.Add("detection rate", ratio(r.Detections, r.AttackedAreaChecks))
	m = m.Add("rounds", float64(r.Rounds))
	m = m.Add("area-14 checks", float64(r.AttackedAreaChecks))
	m = m.Add("prober false negatives", float64(r.FalseNegatives))
	m = m.Add("prober false positives", float64(r.FalsePositives))
	m = m.Add("area-14 gap (s)", r.MeanAttackedAreaGap.Seconds())
	return m.Add("full-scan time (s)", r.MeanFullScanTime.Seconds())
}

// TrialDetection runs one seed of the §VI-B1 detection experiment at the
// paper's default configuration and flattens it to sweep metrics — the
// registry's per-seed dispatch form.
func TrialDetection(_ context.Context, seed uint64) (runner.Metrics, error) {
	cfg := DefaultDetectionConfig()
	cfg.Seed = seed
	res, err := RunDetection(cfg)
	if err != nil {
		return nil, err
	}
	return DetectionMetrics(res), nil
}

// EvasionMetrics flattens one seed's EvasionResult into sweep samples.
func EvasionMetrics(r EvasionResult) runner.Metrics {
	m := runner.Metrics{}.Add("evasion rate", r.EvasionRate)
	m = m.Add("baseline rounds", float64(r.Rounds))
	m = m.Add("clean verdicts", float64(r.CleanVerdicts))
	m = m.Add("prober suspect events", float64(r.SuspectEvents))
	return m.Add("rootkit active fraction", r.ActiveFraction)
}

// TrialEvasion runs one seed of the §IV TZ-Evader-vs-baseline experiment at
// the benchtables defaults (10 rounds, 8 s period) and flattens it to sweep
// metrics.
func TrialEvasion(_ context.Context, seed uint64) (runner.Metrics, error) {
	res, err := RunEvasion(seed, 10, 8*time.Second)
	if err != nil {
		return nil, err
	}
	return EvasionMetrics(res), nil
}

// RaceMetrics flattens one seed's RaceResult into sweep samples.
func RaceMetrics(r RaceResult) runner.Metrics {
	m := runner.Metrics{}.Add("unprotected (empirical)", r.UnprotectedEmpirical)
	m = m.Add("unprotected (analytic)", r.UnprotectedAnalytic)
	return m.Add("S bound (bytes)", float64(r.SBound))
}

// TrialRace runs one seed of the §IV-C race analysis and flattens it to
// sweep metrics.
func TrialRace(_ context.Context, seed uint64) (runner.Metrics, error) {
	res, err := RunRace(seed)
	if err != nil {
		return nil, err
	}
	return RaceMetrics(res), nil
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
