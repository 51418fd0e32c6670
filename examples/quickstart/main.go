// Quickstart: boot the simulated Juno r1 board, install the paper's GETTID
// rootkit with a naive attacker (no evasion), run SATIN, and watch the
// alarm fire on area 14 — the introspection area holding the syscall table.
package main

import (
	"fmt"
	"log"
	"time"

	"satin"
)

func main() {
	// SATIN with the paper's defaults, shortened to one full kernel scan
	// with a 1-second average round period so the demo finishes quickly
	// (in *virtual* time — wall time is milliseconds either way).
	s := satin.ScenarioSpec{
		Version: satin.ScenarioSpecVersion,
		Seed:    2024,
		Defense: satin.SpecDefense{Kind: "satin", SATIN: &satin.SpecSATINConfig{
			Tgoal:     satin.SpecDuration(19 * time.Second),
			MaxRounds: 19,
			Seed:      1,
		}},
		Run: satin.SpecRun{ToCompletion: true},
	}
	sc, err := satin.FromSpec(s)
	if err != nil {
		log.Fatal(err)
	}

	// A naive persistent rootkit: hijack the GETTID syscall-table entry
	// and never hide. (The evasion and defense examples show the real
	// TZ-Evader; this one just demonstrates detection.)
	image := sc.Image()
	entry := image.Layout().SyscallEntryAddr(178 /* gettid */)
	if err := image.Mem().PutUint64(entry, image.ModuleBase()+0x100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rootkit installed: syscall-table entry %#x hijacked\n", entry)

	sc.SATIN().OnAlarm(func(a satin.Alarm) {
		fmt.Printf("!! ALARM at %v: round %d found area %d modified\n",
			a.At.Duration().Truncate(time.Millisecond), a.Round, a.Area)
	})
	satin.DriveSpec(sc, s)

	// The end-of-run summary comes straight from the scenario's Report.
	rep := sc.Report()
	fmt.Printf("ran %d introspection rounds over %v of board time\n",
		rep.SATINRounds, rep.Elapsed.Truncate(time.Millisecond))
	fmt.Printf("alarms raised: %d (the syscall table lives in area 14)\n", rep.Alarms)
	if rep.Detected {
		fmt.Println("verdict: the rootkit was detected")
	}
}
