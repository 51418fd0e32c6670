package satin

import (
	"errors"
	"testing"
	"time"

	"satin/internal/runner"
)

// scenarioTrial builds one quick SATIN-vs-evader scenario (one full scan at
// tp = 1 s) and reports its alarm and round counts.
func scenarioTrial(seed uint64) (SweepMetrics, error) {
	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second
	cfg.MaxRounds = 19
	cfg.Seed = seed + 2
	sc, err := NewScenario(WithSeed(seed), WithSATIN(cfg), WithFastEvader(0, 0))
	if err != nil {
		return nil, err
	}
	sc.RunToCompletion()
	m := SweepMetrics{}.Add("alarms", float64(len(sc.SATIN().Alarms())))
	return m.Add("rounds", float64(len(sc.SATIN().Rounds()))), nil
}

func TestRunSeedsFacade(t *testing.T) {
	sw, err := RunSeeds("satin vs evader", 11, 4, 0, scenarioTrial)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Failures) != 0 {
		t.Fatalf("failures: %+v", sw.Failures)
	}
	if got := sw.Seeds; len(got) != 4 || got[0] != 11 || got[3] != 14 {
		t.Fatalf("Seeds = %v, want 11..14", got)
	}
	// One full scan checks area 14 once; the evader loses that race in
	// every universe, so each seed reports exactly one alarm.
	if d := sw.Dist("alarms"); d.Min != 1 || d.Max != 1 {
		t.Errorf("alarms over seeds = %+v, want constant 1", d)
	}
	if d := sw.Dist("rounds"); d.Min != 19 || d.Max != 19 {
		t.Errorf("rounds over seeds = %+v, want constant 19", d)
	}
}

func TestDeterminismRunSeedsAcrossWorkers(t *testing.T) {
	one, err := RunSeeds("det", 3, 3, 1, scenarioTrial)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunSeeds("det", 3, 3, 8, scenarioTrial)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := one.Render(), many.Render(); a != b {
		t.Errorf("workers=1 and workers=8 disagree:\n%s\nvs\n%s", a, b)
	}
}

// TestRunSeedsReportsTrialErrors: a trial that errors or panics becomes a
// Failure of its seed, and a sweep of no seeds is refused.
func TestRunSeedsReportsTrialErrors(t *testing.T) {
	sw, err := RunSeeds("flaky", 0, 3, 2, func(seed uint64) (SweepMetrics, error) {
		switch seed {
		case 1:
			return nil, errors.New("synthetic")
		case 2:
			panic("boom")
		}
		return SweepMetrics{}.Add("v", 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Failures) != 2 || sw.Failures[0].Seed != 1 || sw.Failures[1].Seed != 2 {
		t.Fatalf("Failures = %+v, want seeds 1 and 2", sw.Failures)
	}
	var pe *runner.PanicError
	if !errors.As(sw.Failures[1].Err, &pe) {
		t.Errorf("seed 2 error = %v, want *runner.PanicError", sw.Failures[1].Err)
	}
	if _, err := RunSeeds("empty", 0, 0, 1, func(uint64) (SweepMetrics, error) { return nil, nil }); err == nil {
		t.Error("0-seed sweep did not error")
	}
}
