package experiment

import "testing"

// TestDetectionSweepRates sanity-checks the property the paper's claim
// rests on at more than one seed: the detection rate stays 1.0 (every pass
// over the attacked area raises the alarm) with zero prober false reports.
func TestDetectionSweepRates(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultDetectionConfig()
		cfg.FullScans = 2 // the full 10 scans run in the serial detection tests
		cfg.Seed = seed
		res, err := RunDetection(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rate := ratio(res.Detections, res.AttackedAreaChecks); rate != 1 {
			t.Errorf("seed %d: detection rate %v, want 1.0", seed, rate)
		}
		if res.FalseNegatives != 0 || res.FalsePositives != 0 {
			t.Errorf("seed %d: prober false negatives %d, false positives %d, want 0 and 0",
				seed, res.FalseNegatives, res.FalsePositives)
		}
	}
}

// TestRaceSweepTracksAnalyticBound: the empirical unprotected fraction
// should straddle the analytic ≈90% bound at more than one seed, not just
// at seed 1, and the analytic bound must not depend on the seed.
func TestRaceSweepTracksAnalyticBound(t *testing.T) {
	if testing.Short() {
		t.Skip("race analysis is ~1s per seed")
	}
	var analytic float64
	for seed := uint64(1); seed <= 2; seed++ {
		res, err := RunRace(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if u := res.UnprotectedEmpirical; u < 0.75 || u > 1 {
			t.Errorf("seed %d: unprotected fraction %v, want within [0.75, 1]", seed, u)
		}
		if seed > 1 && res.UnprotectedAnalytic != analytic {
			t.Errorf("analytic bound varies across seeds: %v at seed %d, %v at seed 1", res.UnprotectedAnalytic, seed, analytic)
		}
		analytic = res.UnprotectedAnalytic
	}
}
