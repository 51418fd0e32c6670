// Defense: the paper's §VI-B1 headline experiment at full scale. SATIN
// (19 areas, random area order, random cores, randomly deviated wake-ups)
// runs 190 rounds — ten complete kernel scans — against TZ-Evader. The
// evader detects every single round, but every recovery effort fails: each
// pass over area 14 catches the hijacked syscall-table entry before the
// trace can be scrubbed.
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
		Seed:    5,
		Defense: satin.SpecDefense{Kind: "satin", SATIN: &satin.SpecSATINConfig{
			Tgoal:     satin.SpecDuration(19 * 8 * time.Second), // tp = 8 s, the paper's schedule
			MaxRounds: 190,                                      // ten full scans
			Seed:      5,
		}},
		Evader: satin.SpecEvader{Kind: "fast", Threshold: satin.SpecDuration(satin.DefaultThreshold)},
		Run:    satin.SpecRun{ToCompletion: true},
	}
	sc, err := satin.FromSpec(s)
	if err != nil {
		log.Fatal(err)
	}
	sc.SATIN().OnAlarm(func(a satin.Alarm) {
		fmt.Printf("ALARM at %8v: round %3d caught area %d dirty\n",
			a.At.Duration().Truncate(time.Second), a.Round, a.Area)
	})
	satin.DriveSpec(sc, s)

	// Headline numbers come from the scenario's Report; the per-area gap
	// analysis below still reads the component log.
	rep := sc.Report()
	fmt.Printf("\nsimulated %v of board time\n", rep.Elapsed.Truncate(time.Second))
	fmt.Printf("rounds: %d (%d full scans)\n", rep.SATINRounds, rep.FullScans)
	area14 := sc.SATIN().AreaRounds(14)
	fmt.Printf("area-14 checks: %d, alarms: %d — every recovery effort failed\n",
		len(area14), rep.Alarms)
	if len(area14) > 1 {
		var total time.Duration
		for i := 1; i < len(area14); i++ {
			total += area14[i].Started.Sub(area14[i-1].Started)
		}
		fmt.Printf("average gap between area-14 checks: %v (paper: 141 s)\n",
			(total / time.Duration(len(area14)-1)).Truncate(time.Second))
	}
	fmt.Printf("evader flagged %d/%d rounds (and still lost every race)\n",
		rep.Suspects, rep.SATINRounds)
}
