package satin

import (
	"testing"
	"time"
)

// TestSoakHourLongRun drives a full attack-vs-defense scenario for one
// simulated hour and checks the long-horizon invariants: the round rate
// stays on schedule (no drift in the wake-up queue), every pass keeps
// catching the rootkit, the prober never desynchronizes, and the engine
// drains cleanly. Skipped under -short.
func TestSoakHourLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	// One simulated hour at one round per 8 s ≈ 450 rounds ≈ 23 passes.
	// The default tgoal is 19 × 8 s: tp = 8 s, the paper's schedule.
	maxRounds := int(time.Hour / (8 * time.Second))
	spec := ScenarioSpec{
		Version: ScenarioSpecVersion,
		Seed:    99,
		Defense: SpecDefense{Kind: "satin", SATIN: &SpecSATINConfig{MaxRounds: maxRounds, Seed: 1}},
		Evader:  SpecEvader{Kind: "fast"},
		Run:     SpecRun{ToCompletion: true},
	}
	sc, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	DriveSpec(sc, spec)

	s := sc.SATIN()
	rounds := s.Rounds()
	if len(rounds) != maxRounds {
		t.Fatalf("rounds = %d, want %d", len(rounds), maxRounds)
	}
	// Rate stability: total span ≈ rounds × tp, within 5%.
	span := rounds[len(rounds)-1].Started.Sub(rounds[0].Started)
	want := time.Duration(len(rounds)-1) * 8 * time.Second
	if span < want*95/100 || span > want*105/100 {
		t.Errorf("span = %v over %d rounds, want ≈%v (schedule drift?)", span, len(rounds), want)
	}
	// Detection stays perfect: every check of the attacked area alarms
	// (the final partial pass may or may not have reached area 14).
	area14 := len(s.AreaRounds(14))
	alarms := s.Alarms()
	if len(alarms) != area14 || area14 < s.FullScans() {
		t.Errorf("alarms = %d, area-14 checks = %d, passes = %d", len(alarms), area14, s.FullScans())
	}
	for _, a := range alarms {
		if a.Area != 14 {
			t.Errorf("alarm in area %d", a.Area)
		}
	}
	// The evader flagged every round and ended the run re-armed.
	if got := len(sc.FastEvader().SuspectEvents()); got != len(rounds) {
		t.Errorf("evader flagged %d of %d rounds", got, len(rounds))
	}
	// Core usage stays balanced: no core does more than twice its share.
	perCore := map[int]int{}
	for _, r := range rounds {
		perCore[r.CoreID]++
	}
	share := len(rounds) / 6
	for c, n := range perCore {
		if n > 2*share || n < share/2 {
			t.Errorf("core %d served %d rounds, share is %d", c, n, share)
		}
	}
}
