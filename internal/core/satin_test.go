package core

import (
	"testing"
	"time"

	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/simclock"
	"satin/internal/trustzone"
)

type rig struct {
	engine  *simclock.Engine
	plat    *hw.Platform
	image   *mem.Image
	monitor *trustzone.Monitor
	checker *introspect.Checker
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := simclock.NewEngine()
	p, err := hw.NewJunoR1(e)
	if err != nil {
		t.Fatal(err)
	}
	im, err := mem.NewJunoImage(42)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := introspect.NewChecker(im, p.Perf(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{engine: e, plat: p, image: im, monitor: trustzone.NewMonitor(p, 3), checker: ch}
}

func newSATIN(t *testing.T, r *rig, cfg Config) *SATIN {
	t.Helper()
	s, err := NewJuno(r.plat, r.monitor, r.image, r.checker, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRaceBoundMatchesPaper(t *testing.T) {
	// §IV-C: S <= 1,218,351 bytes with the paper's parameters.
	got := DefaultRaceBound()
	if got < 1218000 || got > 1219000 {
		t.Errorf("DefaultRaceBound = %d, want ≈1218351", got)
	}
	if RaceBound(0, 0, 0, time.Second, 1) != 0 {
		t.Error("non-positive window should yield 0")
	}
	if RaceBound(time.Second, 0, 0, 0, 0) != 0 {
		t.Error("non-positive rate should yield 0")
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero Tgoal", func(c *Config) { c.Tgoal = 0 }},
		{"bad fixed core", func(c *Config) { c.FixedCore = 6 }},
		{"below -1 fixed core", func(c *Config) { c.FixedCore = -2 }},
		{"negative rounds", func(c *Config) { c.MaxRounds = -1 }},
		{"bad technique", func(c *Config) { c.Technique = introspect.Technique(9) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if _, err := NewJuno(r.plat, r.monitor, r.image, r.checker, cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestUnsafeAreasRejected(t *testing.T) {
	r := newRig(t)
	layout := r.image.Layout()
	// A single whole-kernel "area" violates Equation 2.
	whole := []mem.Area{{Index: 0, Addr: layout.Base, Size: layout.TotalSize(), Sections: layout.Sections}}
	cfg := DefaultConfig()
	if _, err := New(r.plat, r.monitor, r.image, r.checker, whole, cfg); err == nil {
		t.Error("whole-kernel area accepted without AllowUnsafeAreas")
	}
	cfg.AllowUnsafeAreas = true
	if _, err := New(r.plat, r.monitor, r.image, r.checker, whole, cfg); err != nil {
		t.Errorf("AllowUnsafeAreas did not override: %v", err)
	}
}

func TestAreaSetCoversAllWithoutReplacement(t *testing.T) {
	rng := simclock.NewRNG(1, "areaset")
	s := NewAreaSet(19, rng)
	for pass := 0; pass < 3; pass++ {
		seen := make(map[int]bool)
		for i := 0; i < 19; i++ {
			a := s.Pick()
			if a < 0 || a >= 19 {
				t.Fatalf("Pick returned %d", a)
			}
			if seen[a] {
				t.Fatalf("area %d picked twice in pass %d", a, pass)
			}
			seen[a] = true
		}
		if len(seen) != 19 {
			t.Fatalf("pass %d covered %d areas", pass, len(seen))
		}
	}
	if s.Refills() != 2 {
		t.Errorf("Refills = %d, want 2 (initial fill excluded)", s.Refills())
	}
}

func TestAreaSetOrderIsRandomized(t *testing.T) {
	rng := simclock.NewRNG(7, "areaset2")
	s := NewAreaSet(19, rng)
	first := make([]int, 19)
	for i := range first {
		first[i] = s.Pick()
	}
	second := make([]int, 19)
	for i := range second {
		second[i] = s.Pick()
	}
	same := true
	for i := range first {
		if first[i] != second[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two passes picked identical orders; selection must be randomized")
	}
}

func TestWakeQueueGenerations(t *testing.T) {
	rng := simclock.NewRNG(3, "wq")
	const n = 6
	tp := 8 * time.Second
	q := NewWakeQueue(n, tp, true, rng, 0)
	// Generation 1: each owner extracts once; all times within (0, n*tp + tp].
	times := make([]simclock.Time, n)
	for i := 0; i < n; i++ {
		times[i] = q.Next(i, 0)
		if times[i].Duration() > time.Duration(n+1)*tp {
			t.Errorf("gen1 time %v beyond horizon+tp", times[i])
		}
	}
	if !q.AllTaken() {
		t.Error("generation not exhausted after n extractions")
	}
	// A new extraction triggers a refresh continuing past the horizon.
	next := q.Next(0, times[0])
	if next.Duration() < time.Duration(n-1)*tp {
		t.Errorf("gen2 time %v does not continue the schedule", next)
	}
	if q.Refreshes() != 1 {
		t.Errorf("Refreshes = %d, want 1", q.Refreshes())
	}
}

func TestWakeQueueAverageGapIsTp(t *testing.T) {
	rng := simclock.NewRNG(5, "wq-avg")
	const n = 6
	tp := 8 * time.Second
	q := NewWakeQueue(n, tp, true, rng, 0)
	// Simulate many generations: collect every wake time.
	var all []simclock.Time
	now := simclock.Time(0)
	for gen := 0; gen < 40; gen++ {
		for i := 0; i < n; i++ {
			w := q.Next(i, now)
			all = append(all, w)
			if w.After(now) {
				now = w
			}
		}
	}
	first, last := all[0], all[0]
	for _, w := range all {
		if w.Before(first) {
			first = w
		}
		if w.After(last) {
			last = w
		}
	}
	avgGap := last.Sub(first) / time.Duration(len(all)-1)
	// §V-C/§VI-B: average time between two rounds is tp.
	if avgGap < 7*time.Second || avgGap > 9*time.Second {
		t.Errorf("average wake gap = %v, want ≈%v", avgGap, tp)
	}
}

func TestWakeQueueNoDeviationIsRegular(t *testing.T) {
	rng := simclock.NewRNG(5, "wq-fixed")
	tp := 8 * time.Second
	q := NewWakeQueue(1, tp, false, rng, 0)
	t1 := q.Next(0, 0)
	t2 := q.Next(0, t1)
	t3 := q.Next(0, t2)
	if t1.Duration() != tp || t2.Sub(t1) != tp || t3.Sub(t2) != tp {
		t.Errorf("fixed-period wakes = %v %v %v, want multiples of %v", t1, t2, t3, tp)
	}
}

func TestSATINCleanKernelScansAllAreas(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second // tp = 1s to keep the test fast
	cfg.MaxRounds = 19
	s := newSATIN(t, r, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("double start accepted")
	}
	r.engine.RunFor(40 * time.Second)
	rounds := s.Rounds()
	if len(rounds) != 19 {
		t.Fatalf("rounds = %d, want 19", len(rounds))
	}
	if len(s.Alarms()) != 0 {
		t.Errorf("clean kernel raised %d alarms", len(s.Alarms()))
	}
	// One full pass covers every area exactly once.
	seen := make(map[int]int)
	coresUsed := make(map[int]bool)
	for _, rd := range rounds {
		seen[rd.Area]++
		coresUsed[rd.CoreID] = true
		if !rd.Clean {
			t.Errorf("round %d dirty on clean kernel", rd.Index)
		}
	}
	if len(seen) != 19 {
		t.Errorf("pass covered %d areas, want 19", len(seen))
	}
	for a, n := range seen {
		if n != 1 {
			t.Errorf("area %d checked %d times in one pass", a, n)
		}
	}
	if s.FullScans() != 1 {
		t.Errorf("FullScans = %d, want 1", s.FullScans())
	}
	// Multi-core collaboration: several cores served.
	if len(coresUsed) < 3 {
		t.Errorf("only %d cores served rounds", len(coresUsed))
	}
}

func TestSATINRoundDurationUnderRaceWindow(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second
	cfg.MaxRounds = 19
	s := newSATIN(t, r, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(40 * time.Second)
	// Every round must finish before the evader's earliest possible
	// scrub: Tns_delay + Tns_recover ≈ 2e-3 + 4.96e-3 ≈ 7ms... the
	// *guarantee* (Eq. 2 with worst-case attacker 6.13ms + threshold
	// 1.8ms) allows up to ~8.1ms at A57 speed; A53 rounds on the largest
	// area run ≈10ms, still under the attacker's *typical* window. Check
	// the design inequality the paper actually relies on: area bytes
	// under the bound.
	for _, rd := range s.Rounds() {
		if s.Areas()[rd.Area].Size >= DefaultRaceBound() {
			t.Errorf("round %d checked an area above the race bound", rd.Index)
		}
		if rd.Elapsed() <= 0 || rd.Elapsed() > 15*time.Millisecond {
			t.Errorf("round %d took %v", rd.Index, rd.Elapsed())
		}
	}
}

func TestSATINDetectsUnhiddenRootkit(t *testing.T) {
	r := newRig(t)
	// A rootkit that never hides (no evasion): flagged on the first pass.
	entry := r.image.Layout().SyscallEntryAddr(mem.GettidNR)
	if err := r.image.Mem().PutUint64(entry, r.image.ModuleBase()+0x100); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second
	cfg.MaxRounds = 19
	s := newSATIN(t, r, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var alarms []Alarm
	s.OnAlarm(func(a Alarm) { alarms = append(alarms, a) })
	r.engine.RunFor(40 * time.Second)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1", len(alarms))
	}
	if alarms[0].Area != 14 {
		t.Errorf("alarm in area %d, want 14 (syscall table)", alarms[0].Area)
	}
}

func TestSATINFixedCoreAblation(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second
	cfg.MaxRounds = 10
	cfg.FixedCore = 4
	s := newSATIN(t, r, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(60 * time.Second)
	rounds := s.Rounds()
	if len(rounds) != 10 {
		t.Fatalf("rounds = %d, want 10", len(rounds))
	}
	for _, rd := range rounds {
		if rd.CoreID != 4 {
			t.Errorf("round on core %d with FixedCore=4", rd.CoreID)
		}
	}
}

func TestSATINWakeGapsWithinTwoTp(t *testing.T) {
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second // tp = 1s
	cfg.MaxRounds = 38
	s := newSATIN(t, r, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(80 * time.Second)
	rounds := s.Rounds()
	if len(rounds) != 38 {
		t.Fatalf("rounds = %d, want 38", len(rounds))
	}
	// System-wide round starts: consecutive gaps within [0, ~2*tp], and
	// actually varied (random deviation).
	tp := s.BasePeriod()
	varied := false
	for i := 1; i < len(rounds); i++ {
		gap := rounds[i].Started.Sub(rounds[i-1].Started)
		if gap < 0 || gap > 2*tp+tp/2 {
			t.Errorf("round gap %d = %v outside [0, 2tp]", i, gap)
		}
		if gap < tp*3/4 || gap > tp*5/4 {
			varied = true
		}
	}
	if !varied {
		t.Error("round gaps all ≈tp; random deviation not visible")
	}
	avg := rounds[len(rounds)-1].Started.Sub(rounds[0].Started) / time.Duration(len(rounds)-1)
	if avg < tp*3/4 || avg > tp*5/4 {
		t.Errorf("average gap %v, want ≈tp=%v", avg, tp)
	}
}

func TestSATINTimersSecuredAgainstNormalWorld(t *testing.T) {
	// The self-activation anchor: normal-world code cannot read or disarm
	// the wake-up schedule.
	r := newRig(t)
	cfg := DefaultConfig()
	cfg.MaxRounds = 1
	s := newSATIN(t, r, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.plat.Cores() {
		if _, err := c.SecureTimer().ReadCVAL(hw.NormalWorld); err == nil {
			t.Errorf("core %d wake time readable from normal world", c.ID())
		}
		if err := c.SecureTimer().WriteCTL(hw.NormalWorld, false); err == nil {
			t.Errorf("core %d timer disarmable from normal world", c.ID())
		}
	}
}
