package core

import (
	"testing"
	"time"

	"satin/internal/attack"
	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/richos"
	"satin/internal/simclock"
	"satin/internal/trustzone"
)

// TestSATINPortableToGenericTEE exercises §VII-D: SATIN's architecture
// needs only multiple cores, a high-privileged mode, and a secure timer.
// The same SATIN code runs unchanged on the non-TrustZone generic platform
// and still defeats the evader.
func TestSATINPortableToGenericTEE(t *testing.T) {
	e := simclock.NewEngine()
	p, err := hw.NewGenericTEE(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCores() != 8 {
		t.Fatalf("NumCores = %d", p.NumCores())
	}
	if _, err := p.FirstCoreOfType(hw.GenericCore); err != nil {
		t.Fatal(err)
	}
	im, err := mem.NewJunoImage(9)
	if err != nil {
		t.Fatal(err)
	}
	osim, err := richos.NewOS(p, im, richos.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checker, err := introspect.NewChecker(im, p.Perf(), 5)
	if err != nil {
		t.Fatal(err)
	}
	monitor := trustzone.NewMonitor(p, 3)

	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second
	cfg.MaxRounds = 19
	s, err := NewJuno(p, monitor, im, checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rootkit := attack.NewRootkit(osim, im)
	evader, err := attack.NewFastEvader(p, im, rootkit, attack.DefaultProberSleep, 1800*time.Microsecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := evader.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunFor(60 * time.Second)

	if got := len(s.Rounds()); got != 19 {
		t.Fatalf("rounds = %d, want 19", got)
	}
	alarms := s.Alarms()
	if len(alarms) != 1 || alarms[0].Area != 14 {
		t.Fatalf("alarms = %+v, want one in area 14", alarms)
	}
	// The wake rotation uses all eight cores over a few passes.
	cores := make(map[int]bool)
	for _, r := range s.Rounds() {
		cores[r.CoreID] = true
	}
	if len(cores) < 5 {
		t.Errorf("rounds used %d of 8 cores", len(cores))
	}
}

func TestGenericTEEValidation(t *testing.T) {
	e := simclock.NewEngine()
	if _, err := hw.NewGenericTEE(e, 0); err == nil {
		t.Error("zero cores accepted")
	}
}
