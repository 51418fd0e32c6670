package attack

import (
	"math"
	"testing"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/richos"
	"satin/internal/simclock"
)

type rig struct {
	engine *simclock.Engine
	plat   *hw.Platform
	image  *mem.Image
	os     *richos.OS
	buffer *ReportBuffer
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
	os, err := richos.NewOS(p, im, richos.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := NewReportBuffer(p.NumCores(), JunoCrossCoreNoise(), 9)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{engine: e, plat: p, image: im, os: os, buffer: buf}
}

func TestReportBufferBasics(t *testing.T) {
	noNoise := CrossCoreNoise{Base: simclock.Exact(0)}
	b, err := NewReportBuffer(2, noNoise, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumSlots() != 2 {
		t.Errorf("NumSlots = %d", b.NumSlots())
	}
	if _, ok := b.Read(0, 100); ok {
		t.Error("empty slot returned a value")
	}
	b.Write(0, 50, 50)
	v, ok := b.Read(0, 100)
	if !ok || v != 50 {
		t.Errorf("Read = %v, %v; want 50", v, ok)
	}
	// Newest wins with zero delay.
	b.Write(0, 80, 80)
	v, _ = b.Read(0, 100)
	if v != 80 {
		t.Errorf("Read = %v, want 80", v)
	}
}

func TestReportBufferVisibilityDelay(t *testing.T) {
	// With a fixed 10µs delay, a write 5µs ago is invisible; the previous
	// one (20µs old) is returned instead.
	delayed := CrossCoreNoise{Base: simclock.Exact(10 * time.Microsecond)}
	b, err := NewReportBuffer(1, delayed, 1)
	if err != nil {
		t.Fatal(err)
	}
	t0 := simclock.Time(100 * time.Microsecond)
	b.Write(0, t0, t0)
	t1 := t0.Add(15 * time.Microsecond)
	b.Write(0, t1, t1)
	readAt := t1.Add(5 * time.Microsecond)
	v, ok := b.Read(0, readAt)
	if !ok || v != t0 {
		t.Errorf("Read = %v, %v; want the older report %v", v, ok, t0)
	}
	// Once the newer write ages past the delay it becomes visible.
	v, _ = b.Read(0, t1.Add(11*time.Microsecond))
	if v != t1 {
		t.Errorf("Read = %v, want %v", v, t1)
	}
}

func TestReportBufferHistoryCap(t *testing.T) {
	noNoise := CrossCoreNoise{Base: simclock.Exact(0)}
	b, err := NewReportBuffer(1, noNoise, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		at := simclock.Time(i * int(time.Microsecond))
		b.Write(0, at, at)
	}
	if got := len(b.slots[0]); got > reportHistory {
		t.Errorf("history grew to %d entries, cap is %d", got, reportHistory)
	}
	v, ok := b.Read(0, simclock.Time(200*time.Microsecond))
	if !ok || v != simclock.Time(100*time.Microsecond) {
		t.Errorf("newest after wrap = %v, %v", v, ok)
	}
}

func TestNoiseValidation(t *testing.T) {
	if _, err := NewReportBuffer(0, JunoCrossCoreNoise(), 1); err == nil {
		t.Error("zero slots accepted")
	}
	bad := []CrossCoreNoise{
		{Base: simclock.Dist{Min: 5, Avg: 1, Max: 9}},
		{Base: simclock.Exact(0), SpikeProb: -0.1},
		{Base: simclock.Exact(0), SpikeProb: 2},
		{Base: simclock.Exact(0), SpikeProb: 0.5, SpikeMean: 0},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("noise %d accepted", i)
		}
	}
	if err := JunoCrossCoreNoise().Validate(); err != nil {
		t.Errorf("Juno noise invalid: %v", err)
	}
}

func TestProberConfigValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: ProberKind(9)}); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: KProberII, Sleep: -1}); err == nil {
		t.Error("negative sleep accepted")
	}
	if _, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: KProberII, Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: KProberII, Cores: []int{42}}); err == nil {
		t.Error("bad core accepted")
	}
}

func TestProberQuietNoSuspicion(t *testing.T) {
	r := newRig(t)
	var suspects []int
	p, err := NewThreadProber(r.os, r.buffer, ProberConfig{
		Kind:      KProberII,
		Threshold: 1800 * time.Microsecond,
		OnSuspect: func(core int, _ simclock.Time) { suspects = append(suspects, core) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(5 * time.Second)
	if len(suspects) != 0 {
		t.Errorf("false positives on a quiet system: %v", suspects)
	}
	if p.Observations() < 10000 {
		t.Errorf("only %d observations in 5s", p.Observations())
	}
	// Staleness on a quiet KProber-II system stays near Tsleep + jitter.
	if p.MaxStaleness() > 1800*time.Microsecond {
		t.Errorf("quiet max staleness %v exceeds the paper's threshold", p.MaxStaleness())
	}
	if p.MaxStaleness() < DefaultProberSleep {
		t.Errorf("max staleness %v below Tsleep; reports cannot be fresher than the sleep period", p.MaxStaleness())
	}
}

func TestProberDetectsSecureEntry(t *testing.T) {
	r := newRig(t)
	var suspectAt, recoverAt simclock.Time
	var suspectCore int
	p, err := NewThreadProber(r.os, r.buffer, ProberConfig{
		Kind:      KProberII,
		Threshold: 1800 * time.Microsecond,
		OnSuspect: func(core int, at simclock.Time) {
			if suspectAt == 0 {
				suspectCore, suspectAt = core, at
			}
		},
		OnRecover: func(core int, at simclock.Time) {
			if recoverAt == 0 {
				recoverAt = at
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const entry = 2 * time.Second
	const exit = entry + 50*time.Millisecond
	r.engine.After(entry, "steal", func() { r.plat.Core(3).SetWorld(hw.SecureWorld) })
	r.engine.After(exit, "release", func() { r.plat.Core(3).SetWorld(hw.NormalWorld) })
	r.engine.RunFor(3 * time.Second)

	if suspectAt == 0 {
		t.Fatal("prober never flagged the stolen core (false negative)")
	}
	if suspectCore != 3 {
		t.Errorf("flagged core %d, want 3", suspectCore)
	}
	// Detection delay Tns_delay = Tns_sched + Tns_threshold ≈ ≤ 2.2 ms.
	delay := suspectAt.Sub(simclock.Time(entry))
	if delay < time.Millisecond || delay > 3*time.Millisecond {
		t.Errorf("detection delay = %v, want ≈1.8–2.2ms", delay)
	}
	if recoverAt == 0 {
		t.Fatal("prober never saw the core return")
	}
	backDelay := recoverAt.Sub(simclock.Time(exit))
	if backDelay <= 0 || backDelay > 2*time.Millisecond {
		t.Errorf("recovery observation delay = %v", backDelay)
	}
	if p.Suspected(3) {
		t.Error("core 3 still suspected after recovery")
	}
}

func TestUserProberSlowerUnderLoad(t *testing.T) {
	// §III-B2: CFS-scheduled probing degrades when the cores are loaded;
	// KProber-II at FIFO max priority does not.
	measure := func(kind ProberKind) time.Duration {
		r := newRig(t)
		// Load every core with two CPU-bound threads.
		for c := 0; c < r.plat.NumCores(); c++ {
			for j := 0; j < 2; j++ {
				if _, err := r.os.Spawn("load", richos.PolicyCFS, 0, []int{c},
					richos.ProgramFunc(func(*richos.ThreadContext) richos.Step {
						return richos.Compute(time.Millisecond)
					})); err != nil {
					t.Fatal(err)
				}
			}
		}
		p, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		r.engine.RunFor(4 * time.Second)
		return p.MaxStaleness()
	}
	user := measure(UserProber)
	kp2 := measure(KProberII)
	if kp2 > 2*time.Millisecond {
		t.Errorf("KProber-II staleness %v under load; RT priority should protect it", kp2)
	}
	if user < 3*kp2 {
		t.Errorf("user prober (%v) not clearly worse than KProber-II (%v) under load", user, kp2)
	}
}

func TestKProber1ReportsAtTickRate(t *testing.T) {
	r := newRig(t)
	kp1 := NewKProber1(r.os, r.buffer)
	if err := kp1.Install(true); err != nil {
		t.Fatal(err)
	}
	if !kp1.Installed() {
		t.Error("Installed() = false")
	}
	r.engine.RunFor(time.Second)
	// HZ = 250: every busy core reports ≈250 times per second.
	for c := 0; c < r.plat.NumCores(); c++ {
		if n := kp1.ReportCount(c); n < 200 || n > 300 {
			t.Errorf("core %d reported %d times, want ≈250", c, n)
		}
	}
	// The hijack left a real trace in kernel text (area 0).
	if len(r.image.Modified()) == 0 {
		t.Fatal("KProber-I left no memory trace")
	}
	// Double install is rejected.
	if err := kp1.Install(false); err == nil {
		t.Error("double install accepted")
	}
	// Uninstall restores the pristine vector.
	if err := kp1.Uninstall(); err != nil {
		t.Fatal(err)
	}
	if len(r.image.Modified()) != 0 {
		t.Error("uninstall left modified bytes")
	}
	if err := kp1.Uninstall(); err == nil {
		t.Error("double uninstall accepted")
	}
}

func TestSingleCoreProberMorePrecise(t *testing.T) {
	// §IV-B2: probing one fixed core is ≈4x more precise than probing all
	// cores.
	r := newRig(t)
	all, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: KProberII})
	if err != nil {
		t.Fatal(err)
	}
	if err := all.Start(); err != nil {
		t.Fatal(err)
	}
	r2 := newRig(t)
	single, err := NewSingleCoreProber(r2.os, r2.buffer, 4, 0, ProberConfig{Kind: KProberII})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Start(); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(4 * time.Second)
	r2.engine.RunFor(4 * time.Second)
	ratio := float64(single.MaxStaleness()) / float64(all.MaxStaleness())
	if ratio > 0.5 || ratio < 0.1 {
		t.Errorf("single/all staleness ratio = %.2f (single %v, all %v); want ≈0.25",
			ratio, single.MaxStaleness(), all.MaxStaleness())
	}
}

// TestSingleCoreProberSuspectsSecureResidency: with a threshold set, one
// secure residency on the target fires OnSuspect once and then OnRecover
// once, both naming the target.
func TestSingleCoreProberSuspectsSecureResidency(t *testing.T) {
	r := newRig(t)
	var suspects, recovers []int
	var suspectAt, recoverAt simclock.Time
	p, err := NewSingleCoreProber(r.os, r.buffer, 4, 0, ProberConfig{
		Kind:      KProberII,
		Threshold: 1800 * time.Microsecond,
		OnSuspect: func(core int, at simclock.Time) { suspects, suspectAt = append(suspects, core), at },
		OnRecover: func(core int, at simclock.Time) { recovers, recoverAt = append(recovers, core), at },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	const entry = 2 * time.Second
	const exit = entry + 50*time.Millisecond
	r.engine.After(entry, "steal", func() { r.plat.Core(4).SetWorld(hw.SecureWorld) })
	r.engine.After(exit, "release", func() { r.plat.Core(4).SetWorld(hw.NormalWorld) })
	r.engine.RunFor(3 * time.Second)

	if len(suspects) != 1 || suspects[0] != 4 {
		t.Fatalf("OnSuspect fired for cores %v, want once for core 4", suspects)
	}
	if len(recovers) != 1 || recovers[0] != 4 {
		t.Fatalf("OnRecover fired for cores %v, want once for core 4", recovers)
	}
	if delay := suspectAt.Sub(simclock.Time(entry)); delay <= 0 || delay > 3*time.Millisecond {
		t.Errorf("detection delay = %v, want within 3ms of the entry", delay)
	}
	if back := recoverAt.Sub(simclock.Time(exit)); back <= 0 || back > 2*time.Millisecond {
		t.Errorf("recovery observation delay = %v", back)
	}
	if p.Suspected() {
		t.Error("target still suspected after recovery")
	}
}

func TestSingleCoreProberValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewSingleCoreProber(r.os, r.buffer, 2, 2, ProberConfig{Kind: KProberII}); err == nil {
		t.Error("same target and observer accepted")
	}
}

func TestProberDoubleStart(t *testing.T) {
	r := newRig(t)
	p, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: KProberII})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Error("double start accepted")
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{
		UserProber.String(), KProberII.String(), ProberKind(9).String(),
		EvaderAttacking.String(), EvaderHiding.String(), EvaderHidden.String(),
		EvaderReinstalling.String(), EvaderState(9).String(),
		EventSuspect.String(), EventHidden.String(), EventCoreBack.String(),
		EventReinstalled.String(), EventKind(9).String(),
		RootkitHidden.String(), RootkitActive.String(), RootkitState(9).String(),
	} {
		if s == "" {
			t.Error("empty stringer output")
		}
	}
}

func TestUserProberLeavesNoKernelTrace(t *testing.T) {
	// §III-B1: "each step of the prober requires no modification with OS
	// kernel privilege, it is stealthy". The user-level prober must leave
	// the static kernel byte-identical — unlike KProber-I.
	r := newRig(t)
	p, err := NewThreadProber(r.os, r.buffer, ProberConfig{Kind: UserProber})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	r.engine.RunFor(2 * time.Second)
	if mod := r.image.Modified(); len(mod) != 0 {
		t.Errorf("user prober modified %d kernel bytes", len(mod))
	}
}

func TestFloodValidation(t *testing.T) {
	r := newRig(t)
	// Past one burst per virtual nanosecond, every burst would re-arm at
	// the same instant. None of these floods is started.
	for _, rate := range []float64{0, math.Nextafter(MaxFloodRate, math.Inf(1)), 2e9, math.Inf(1), math.NaN()} {
		if _, err := NewInterruptFlood(r.plat, rate, nil); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	if _, err := NewInterruptFlood(r.plat, MaxFloodRate, nil); err != nil {
		t.Errorf("rate %v: %v", float64(MaxFloodRate), err)
	}
	if _, err := NewInterruptFlood(r.plat, 1000, []int{99}); err == nil {
		t.Error("bad core accepted")
	}
	f, err := NewInterruptFlood(r.plat, 1000, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Error("double start accepted")
	}
	r.engine.RunFor(100 * time.Millisecond)
	f.Stop()
	raised := f.Raised()
	if raised < 90 || raised > 110 {
		t.Errorf("raised %d interrupts in 100ms at 1kHz, want ≈100", raised)
	}
	r.engine.RunFor(100 * time.Millisecond)
	if f.Raised() > raised+1 {
		t.Errorf("flood kept raising after Stop: %d -> %d", raised, f.Raised())
	}
}
