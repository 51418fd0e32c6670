package satin_test

import (
	"fmt"
	"time"

	"satin"
)

// The headline scenario: SATIN versus TZ-Evader. Every pass over the
// attacked area raises an alarm even though the evader detects and reacts
// to every single round.
func Example() {
	s := satin.ScenarioSpec{
		Version: satin.ScenarioSpecVersion,
		Seed:    42,
		Defense: satin.SpecDefense{Kind: "satin", SATIN: &satin.SpecSATINConfig{
			Tgoal:     satin.SpecDuration(19 * time.Second), // tp = 1 s for a quick demo
			MaxRounds: 38,                                   // two full kernel scans
			Seed:      1,
		}},
		Evader: satin.SpecEvader{Kind: "fast", Threshold: satin.SpecDuration(satin.DefaultThreshold)},
		Run:    satin.SpecRun{ToCompletion: true},
	}
	sc, err := satin.FromSpec(s)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	satin.DriveSpec(sc, s)
	fmt.Printf("rounds: %d\n", len(sc.SATIN().Rounds()))
	fmt.Printf("alarms: %d\n", len(sc.SATIN().Alarms()))
	// Output:
	// rounds: 38
	// alarms: 2
}

// The baseline story: the same evader walks straight past a randomized
// whole-kernel checker.
func ExampleFromSpec_baseline() {
	s := satin.ScenarioSpec{
		Version: satin.ScenarioSpecVersion,
		Seed:    7,
		Defense: satin.SpecDefense{Kind: "baseline", Baseline: &satin.SpecBaselineConfig{
			Period:          satin.SpecDuration(4 * time.Second),
			RandomizePeriod: true,
			Selection:       "random",
			Technique:       "direct",
			MaxRounds:       4,
		}},
		Evader: satin.SpecEvader{Kind: "fast"},
		Run:    satin.SpecRun{ToCompletion: true},
	}
	sc, err := satin.FromSpec(s)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	satin.DriveSpec(sc, s)
	clean := 0
	for _, o := range sc.Baseline().Outcomes() {
		if o.Clean {
			clean++
		}
	}
	fmt.Printf("evaded %d of %d checks\n", clean, len(sc.Baseline().Outcomes()))
	// Output:
	// evaded 4 of 4 checks
}
