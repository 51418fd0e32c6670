// Evasion: the paper's §IV story. TZ-Evader — core-availability probing
// plus hide/reinstall — defeats the state-of-the-art baseline: a
// random-period, random-core, whole-kernel asynchronous introspection.
// Every baseline round comes back "clean" while the rootkit stays active
// ~99% of the time.
package main

import (
	"fmt"
	"log"
	"time"

	"satin"
)

func main() {
	s := satin.ScenarioSpec{
		Version: satin.ScenarioSpecVersion,
		Seed:    7,
		// The strongest pre-SATIN defense: randomized schedule, random
		// core, direct hashing of the whole kernel.
		Defense: satin.SpecDefense{Kind: "baseline", Baseline: &satin.SpecBaselineConfig{
			Period:          satin.SpecDuration(8 * time.Second),
			RandomizePeriod: true,
			Selection:       "random",
			Technique:       "direct",
			MaxRounds:       8,
		}},
		// The full thread-level TZ-Evader: KProber-II probing threads on
		// every core at the paper's 1.8 ms threshold.
		Evader: satin.SpecEvader{Kind: "thread", Threshold: satin.SpecDuration(satin.DefaultThreshold)},
		// The thread-level evader probes forever, so drive a bounded
		// horizon: 8 randomized rounds land within 8 × 2·period plus slack.
		Run: satin.SpecRun{For: satin.SpecDuration(150 * time.Second)},
	}
	sc, err := satin.FromSpec(s)
	if err != nil {
		log.Fatal(err)
	}
	satin.DriveSpec(sc, s)

	for _, o := range sc.Baseline().Outcomes() {
		verdict := "DETECTED"
		if o.Clean {
			verdict = "clean (evaded)"
		}
		fmt.Printf("round %d on core %d: checked %v of kernel in %v -> %s\n",
			o.Round, o.CoreID, "11.9 MB", o.Elapsed().Truncate(time.Millisecond), verdict)
	}
	// The summary comes from the scenario's Report; only the evader's max
	// staleness needs the component accessor.
	rep := sc.Report()
	fmt.Printf("\nTZ-Evader flagged %d introspection entries (max staleness seen: %v)\n",
		rep.Suspects, sc.ThreadEvader().MaxStaleness().Truncate(time.Microsecond))
	fmt.Printf("evasion success: %d/%d rounds — the rootkit is %v and was hidden only during checks\n",
		rep.BaselineClean, rep.BaselineRounds, rep.RootkitState)
}
