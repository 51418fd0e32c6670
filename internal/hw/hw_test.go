package hw

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"satin/internal/simclock"
)

func newTestPlatform(t *testing.T) (*simclock.Engine, *Platform) {
	t.Helper()
	e := simclock.NewEngine()
	p, err := NewJunoR1(e)
	if err != nil {
		t.Fatalf("NewJunoR1: %v", err)
	}
	return e, p
}

func TestJunoR1Topology(t *testing.T) {
	_, p := newTestPlatform(t)
	if p.NumCores() != 6 {
		t.Fatalf("NumCores = %d, want 6", p.NumCores())
	}
	if got := p.CoresOfType(CortexA53); len(got) != 4 {
		t.Errorf("A53 cores = %v, want 4 of them", got)
	}
	if got := p.CoresOfType(CortexA57); len(got) != 2 {
		t.Errorf("A57 cores = %v, want 2 of them", got)
	}
	for i, c := range p.Cores() {
		if c.ID() != i {
			t.Errorf("core %d has ID %d", i, c.ID())
		}
		if c.World() != NormalWorld {
			t.Errorf("core %d boots in %v, want normal world", i, c.World())
		}
	}
	a57, err := p.FirstCoreOfType(CortexA57)
	if err != nil || a57.ID() != 4 {
		t.Errorf("FirstCoreOfType(A57) = %v, %v; want core 4", a57, err)
	}
}

func TestNewPlatformValidation(t *testing.T) {
	e := simclock.NewEngine()
	if _, err := NewPlatform(nil, Config{CoreTypes: []CoreType{CortexA53}, Perf: JunoR1PerfModel()}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewPlatform(e, Config{Perf: JunoR1PerfModel()}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewPlatform(e, Config{CoreTypes: []CoreType{CortexA53}}); err == nil {
		t.Error("empty perf model accepted")
	}
	// Perf model lacking a used core type.
	perf := JunoR1PerfModel()
	delete(perf.Rates, CortexA57)
	if _, err := NewPlatform(e, Config{CoreTypes: []CoreType{CortexA57}, Perf: perf}); err == nil {
		t.Error("missing core-type rates accepted")
	}
}

func TestCoreTypeAndWorldStrings(t *testing.T) {
	if CortexA53.String() != "A53" || CortexA57.String() != "A57" {
		t.Error("core type names wrong")
	}
	if NormalWorld.String() != "normal" || SecureWorld.String() != "secure" {
		t.Error("world names wrong")
	}
	if CoreType(99).String() == "" || World(99).String() == "" {
		t.Error("unknown values should still render")
	}
}

func TestWorldChangeObserver(t *testing.T) {
	_, p := newTestPlatform(t)
	c := p.Core(0)
	var transitions []World
	c.OnWorldChange(func(_ *Core, _, newWorld World) {
		transitions = append(transitions, newWorld)
	})
	c.SetWorld(SecureWorld)
	c.SetWorld(SecureWorld) // no-op: same world
	c.SetWorld(NormalWorld)
	if len(transitions) != 2 || transitions[0] != SecureWorld || transitions[1] != NormalWorld {
		t.Errorf("transitions = %v, want [secure normal]", transitions)
	}
}

func TestSetWorldInvalidPanics(t *testing.T) {
	_, p := newTestPlatform(t)
	defer func() {
		if recover() == nil {
			t.Error("invalid world did not panic")
		}
	}()
	p.Core(0).SetWorld(World(0))
}

func TestSharedCounterTracksEngine(t *testing.T) {
	e, p := newTestPlatform(t)
	e.After(5*time.Millisecond, "probe", func() {
		if p.ReadCounter() != simclock.Time(5*time.Millisecond) {
			t.Errorf("counter = %v, want 5ms", p.ReadCounter())
		}
	})
	e.Run()
}

func TestSecureTimerPrivilege(t *testing.T) {
	_, p := newTestPlatform(t)
	st := p.Core(0).SecureTimer()
	if err := st.WriteCVAL(NormalWorld, 100); !errors.Is(err, ErrSecurePrivilege) {
		t.Errorf("normal-world CVAL write error = %v, want ErrSecurePrivilege", err)
	}
	if err := st.WriteCTL(NormalWorld, true); !errors.Is(err, ErrSecurePrivilege) {
		t.Errorf("normal-world CTL write error = %v, want ErrSecurePrivilege", err)
	}
	if _, err := st.ReadCVAL(NormalWorld); !errors.Is(err, ErrSecurePrivilege) {
		t.Errorf("normal-world CVAL read error = %v, want ErrSecurePrivilege", err)
	}
	if _, err := st.ReadCTL(NormalWorld); !errors.Is(err, ErrSecurePrivilege) {
		t.Errorf("normal-world CTL read error = %v, want ErrSecurePrivilege", err)
	}
	// Secure world has full access.
	if err := st.WriteCVAL(SecureWorld, 100); err != nil {
		t.Errorf("secure CVAL write: %v", err)
	}
	got, err := st.ReadCVAL(SecureWorld)
	if err != nil || got != 100 {
		t.Errorf("secure CVAL read = %v, %v; want 100", got, err)
	}
}

func TestSecureTimerFiresAtCVAL(t *testing.T) {
	e, p := newTestPlatform(t)
	var fired []simclock.Time
	p.GIC().Register(IntSecureTimer, func(coreID int) {
		if coreID != 2 {
			t.Errorf("interrupt on core %d, want 2", coreID)
		}
		fired = append(fired, e.Now())
	})
	st := p.Core(2).SecureTimer()
	if err := st.WriteCVAL(SecureWorld, simclock.Time(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCTL(SecureWorld, true); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(fired) != 1 || fired[0] != simclock.Time(10*time.Millisecond) {
		t.Errorf("fired = %v, want [10ms]", fired)
	}
}

func TestSecureTimerDisabledDoesNotFire(t *testing.T) {
	e, p := newTestPlatform(t)
	fired := 0
	p.GIC().Register(IntSecureTimer, func(int) { fired++ })
	st := p.Core(0).SecureTimer()
	if err := st.WriteCVAL(SecureWorld, simclock.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Never enabled.
	e.Run()
	if fired != 0 {
		t.Errorf("disabled timer fired %d times", fired)
	}
	// Enable then disable before the deadline.
	if err := st.WriteCTL(SecureWorld, true); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCVAL(SecureWorld, simclock.Time(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCTL(SecureWorld, false); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if fired != 0 {
		t.Errorf("timer fired %d times after disable", fired)
	}
}

func TestSecureTimerPastCVALFiresImmediately(t *testing.T) {
	e, p := newTestPlatform(t)
	fired := 0
	p.GIC().Register(IntSecureTimer, func(int) { fired++ })
	e.After(10*time.Millisecond, "arm", func() {
		st := p.Core(0).SecureTimer()
		// CVAL in the past: CNTPCT >= CVAL already holds.
		if err := st.WriteCVAL(SecureWorld, simclock.Time(time.Millisecond)); err != nil {
			t.Errorf("WriteCVAL: %v", err)
		}
		if err := st.WriteCTL(SecureWorld, true); err != nil {
			t.Errorf("WriteCTL: %v", err)
		}
	})
	e.Run()
	if fired != 1 {
		t.Errorf("past-CVAL timer fired %d times, want 1", fired)
	}
	if e.Now() != simclock.Time(10*time.Millisecond) {
		t.Errorf("fired at %v, want 10ms (immediately)", e.Now())
	}
}

func TestSecureTimerRearm(t *testing.T) {
	e, p := newTestPlatform(t)
	var fired []simclock.Time
	st := p.Core(0).SecureTimer()
	p.GIC().Register(IntSecureTimer, func(int) {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			next := e.Now().Add(10 * time.Millisecond)
			if err := st.WriteCVAL(SecureWorld, next); err != nil {
				t.Errorf("rearm: %v", err)
			}
		} else {
			if err := st.WriteCTL(SecureWorld, false); err != nil {
				t.Errorf("disable: %v", err)
			}
		}
	})
	if err := st.WriteCVAL(SecureWorld, simclock.Time(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCTL(SecureWorld, true); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d times, want 3: %v", len(fired), fired)
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if fired[i] != simclock.Time(want*time.Millisecond) {
			t.Errorf("fire %d at %v, want %vms", i, fired[i], want)
		}
	}
}

func TestGICSecureInterruptAlwaysDelivered(t *testing.T) {
	_, p := newTestPlatform(t)
	delivered := 0
	p.GIC().Register(IntSecureTimer, func(int) { delivered++ })
	// Even with the core in the secure world, secure interrupts reach the
	// monitor's handler.
	p.Core(1).SetWorld(SecureWorld)
	p.GIC().Raise(IntSecureTimer, 1)
	if delivered != 1 {
		t.Errorf("secure interrupt delivered %d times, want 1", delivered)
	}
}

func TestGICNonSecurePendsDuringSecureWorld(t *testing.T) {
	_, p := newTestPlatform(t)
	var delivered []IntID
	p.GIC().Register(IntNSTimer, func(coreID int) {
		if coreID != 3 {
			t.Errorf("NS interrupt on core %d, want 3", coreID)
		}
		delivered = append(delivered, IntNSTimer)
	})
	c := p.Core(3)
	c.SetWorld(SecureWorld)
	// Raised twice while secure: pends as a level, delivered once.
	p.GIC().Raise(IntNSTimer, 3)
	p.GIC().Raise(IntNSTimer, 3)
	if len(delivered) != 0 {
		t.Fatalf("NS interrupt delivered during secure execution (SCR_EL3.IRQ=0 model)")
	}
	if !p.GIC().PendingOn(IntNSTimer, 3) {
		t.Error("NS interrupt not pending")
	}
	c.SetWorld(NormalWorld)
	if len(delivered) != 1 {
		t.Fatalf("NS interrupt delivered %d times after world exit, want 1", len(delivered))
	}
	if p.GIC().PendingOn(IntNSTimer, 3) {
		t.Error("interrupt still pending after delivery")
	}
}

func TestGICNonSecureImmediateInNormalWorld(t *testing.T) {
	_, p := newTestPlatform(t)
	delivered := 0
	p.GIC().Register(IntNSTimer, func(int) { delivered++ })
	p.GIC().Raise(IntNSTimer, 0)
	if delivered != 1 {
		t.Errorf("NS interrupt in normal world delivered %d times, want 1", delivered)
	}
}

func TestGICPendingDrainOrder(t *testing.T) {
	// Lines raised in any order on a core in the secure world drain in
	// numeric order when it returns to the normal world.
	for _, tc := range []struct {
		raised, want []IntID
	}{
		{raised: []IntID{41, 40}, want: []IntID{40, 41}},
		{raised: []IntID{63, 30, 29, 1}, want: []IntID{1, 29, 30, 63}},
	} {
		_, p := newTestPlatform(t)
		var order []IntID
		for _, id := range tc.raised {
			p.GIC().Configure(id, GroupNonSecure)
			p.GIC().Register(id, func(int) { order = append(order, id) })
		}
		c := p.Core(0)
		c.SetWorld(SecureWorld)
		for _, id := range tc.raised {
			p.GIC().Raise(id, 0)
		}
		c.SetWorld(NormalWorld)
		if fmt.Sprint(order) != fmt.Sprint(tc.want) {
			t.Errorf("raised %v: drain order = %v, want %v", tc.raised, order, tc.want)
		}
	}
}

// TestGICDrainDispatchesOnlyLinesPendingAtStart: a handler that sends its
// core back to the secure world and raises another line leaves that line
// pending for the next drain, even though the running drain has not
// finished.
func TestGICDrainDispatchesOnlyLinesPendingAtStart(t *testing.T) {
	_, p := newTestPlatform(t)
	const (
		intA IntID = 40
		intB IntID = 41
	)
	g := p.GIC()
	g.Configure(intA, GroupNonSecure)
	g.Configure(intB, GroupNonSecure)
	c := p.Core(0)
	var order []IntID
	g.Register(intA, func(int) {
		order = append(order, intA)
		c.SetWorld(SecureWorld)
		g.Raise(intB, 0)
	})
	g.Register(intB, func(int) { order = append(order, intB) })
	c.SetWorld(SecureWorld)
	g.Raise(intA, 0)
	c.SetWorld(NormalWorld)
	if fmt.Sprint(order) != fmt.Sprint([]IntID{intA}) || !g.PendingOn(intB, 0) {
		t.Fatalf("after the first drain: order %v, line %d pending %v; want [%d] and pending",
			order, intB, g.PendingOn(intB, 0), intA)
	}
	c.SetWorld(NormalWorld)
	if fmt.Sprint(order) != fmt.Sprint([]IntID{intA, intB}) || g.PendingOn(intB, 0) {
		t.Fatalf("after the second drain: order %v, line %d pending %v; want [%d %d] and not pending",
			order, intB, g.PendingOn(intB, 0), intA, intB)
	}
}

// TestGICRejectsLinesOutsideItsArray: configuring, registering, querying,
// raising or delivering a line outside 0..63 panics with a message naming
// the line.
func TestGICRejectsLinesOutsideItsArray(t *testing.T) {
	_, p := newTestPlatform(t)
	g := p.GIC()
	panicMessage := func(fn func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		fn()
		return ""
	}
	for _, id := range []IntID{-1, 64} {
		for _, c := range []struct {
			name string
			call func()
		}{
			{"Configure", func() { g.Configure(id, GroupNonSecure) }},
			{"Register", func() { g.Register(id, func(int) {}) }},
			{"PendingOn", func() { g.PendingOn(id, 0) }},
			{"Raise", func() { g.Raise(id, 0) }},
			{"Deliver", func() { g.Deliver(id, 0) }},
		} {
			msg := panicMessage(c.call)
			if want := fmt.Sprintf("interrupt line %d ", int(id)); !strings.Contains(msg, want) {
				t.Errorf("%s(%d): panic %q, want one naming the line (%q)", c.name, int(id), msg, want)
			}
		}
	}
}

func TestGICUnconfiguredInterruptPanics(t *testing.T) {
	_, p := newTestPlatform(t)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "without a configured group") {
			t.Errorf("unconfigured interrupt panicked with %q, want one about its missing group", msg)
		}
	}()
	p.GIC().Raise(IntID(5), 0)
}

func TestGICUnhandledInterruptPanics(t *testing.T) {
	_, p := newTestPlatform(t)
	defer func() {
		if recover() == nil {
			t.Error("unhandled interrupt did not panic")
		}
	}()
	p.GIC().Raise(IntSecureTimer, 0) // configured but no handler registered
}

func TestPerfModelDraws(t *testing.T) {
	perf := JunoR1PerfModel()
	if err := perf.Validate(); err != nil {
		t.Fatalf("Juno perf model invalid: %v", err)
	}
	g := simclock.NewRNG(1, "perf")
	// Ts_switch within the measured envelope.
	for i := 0; i < 1000; i++ {
		d := perf.SwitchTime(g)
		if d < 2380*time.Nanosecond || d > 3600*time.Nanosecond {
			t.Fatalf("SwitchTime = %v outside [2.38µs, 3.60µs]", d)
		}
	}
	// Hashing 1 MiB on an A57 should take about 1 MiB * 6.71 ns/B ≈ 7 ms.
	d := perf.HashTime(CortexA57, 1<<20, g)
	if d < 6*time.Millisecond || d > 9*time.Millisecond {
		t.Errorf("HashTime(A57, 1MiB) = %v, want ≈7ms", d)
	}
	// A57 must beat A53 on average (the paper's observation 2, §IV-C).
	var a53, a57 time.Duration
	for i := 0; i < 200; i++ {
		a53 += perf.HashTime(CortexA53, 1<<20, g)
		a57 += perf.HashTime(CortexA57, 1<<20, g)
	}
	if a57 >= a53 {
		t.Errorf("A57 hashing (%v) not faster than A53 (%v)", a57/200, a53/200)
	}
	// Recovering the paper's 8-byte syscall entry: ≈5.8 ms on A53.
	rec := perf.RecoverTime(CortexA53, 8, g)
	if rec < 5*time.Millisecond || rec > 7*time.Millisecond {
		t.Errorf("RecoverTime(A53, 8B) = %v, want ≈5.8ms", rec)
	}
}

func TestPerfModelRatesForUnknownTypePanics(t *testing.T) {
	perf := JunoR1PerfModel()
	defer func() {
		if recover() == nil {
			t.Error("unknown core type did not panic")
		}
	}()
	perf.RatesFor(CoreType(42))
}

func TestPerfModelValidateCatchesBadRates(t *testing.T) {
	perf := JunoR1PerfModel()
	bad := perf.Rates[CortexA53]
	bad.HashPerByte = simclock.FloatDist{Min: 2, Avg: 1, Max: 3}
	perf.Rates[CortexA53] = bad
	if err := perf.Validate(); err == nil {
		t.Error("invalid rates passed validation")
	}
}

func TestCoreString(t *testing.T) {
	_, p := newTestPlatform(t)
	if got := p.Core(4).String(); got != "core4(A57)" {
		t.Errorf("String() = %q", got)
	}
}
