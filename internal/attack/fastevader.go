package attack

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/profile"
	"satin/internal/simclock"
)

// FastEvader is the scalable TZ-Evader used by the long-horizon
// experiments: instead of simulating six 2e-4 s-period prober threads for
// simulated hours (hundreds of millions of events), it reacts to the same
// observable — a core leaving the normal world — through calibrated delay
// draws that reproduce the thread-level evader's behavior:
//
//	detection  = entry + Tns_threshold + (comparer phase − reporter phase)
//	trace gone = detection + Tns_recover (drawn per the cleaning core type)
//	reinstall  = first all-cores-back observation + Tns_recover
//
// The test suite cross-validates these delays against the thread-level
// Evader. FastEvader performs the *same memory writes* through the same
// Rootkit, so from the introspection's point of view the two are
// interchangeable; what FastEvader forgoes is the attacker's own CPU load
// on the rich OS (irrelevant to detection-rate experiments; the overhead
// experiment uses no evader).
type FastEvader struct {
	platform *hw.Platform
	image    *mem.Image
	rootkit  *Rootkit
	rng      *simclock.RNG

	sleep     time.Duration
	threshold time.Duration

	state       EvaderState
	secureCores map[int]simclock.Time // entry times of cores currently away
	suspected   map[int]bool
	events      []Event
	obs         evaderObs
	pending     map[int]simclock.Handle // detection events per core
	// hidePending and reinstallPending are the at-most-one hide or
	// reinstall countdown, kept so a restore can refuse a second.
	hidePending      simclock.Handle
	reinstallPending simclock.Handle
	started          bool
	// prof receives evader spans on the dedicated evader track (nil unless
	// SetProfiler was called; every emit is nil-safe).
	prof *profile.Profiler
}

// SetProfiler attaches the causal span profiler: every freeze reaction
// opens an evasion-window span (closed when the trace is reinstalled)
// containing hide and reinstall child spans. Passing nil detaches.
func (f *FastEvader) SetProfiler(p *profile.Profiler) { f.prof = p }

// Observe wires the evader into the observability layer: every log entry
// is published to bus and counted in reg. Either argument may be nil.
func (f *FastEvader) Observe(bus *obs.Bus, reg *obs.Registry) {
	f.obs = newEvaderObs(bus, reg)
}

// NewFastEvader builds the evader; Start installs the rootkit and begins
// watching. sleep and threshold mirror ProberConfig's Tsleep and
// Tns_threshold.
func NewFastEvader(p *hw.Platform, image *mem.Image, rootkit *Rootkit, sleep, threshold time.Duration, seed uint64) (*FastEvader, error) {
	if sleep <= 0 || threshold <= 0 {
		return nil, fmt.Errorf("attack: fast evader needs positive sleep (%v) and threshold (%v)", sleep, threshold)
	}
	return &FastEvader{
		platform:    p,
		image:       image,
		rootkit:     rootkit,
		rng:         simclock.NewRNG(seed, "attack.fastevader"),
		sleep:       sleep,
		threshold:   threshold,
		state:       EvaderAttacking,
		secureCores: make(map[int]simclock.Time),
		suspected:   make(map[int]bool),
		pending:     make(map[int]simclock.Handle),
	}, nil
}

// Start installs the rootkit and hooks the core-availability observable.
func (f *FastEvader) Start() error {
	if f.started {
		return fmt.Errorf("attack: fast evader already started")
	}
	if err := f.rootkit.Install(f.platform.Engine().Now()); err != nil {
		return err
	}
	for _, core := range f.platform.Cores() {
		core.OnWorldChange(f.onWorldChange)
	}
	f.started = true
	return nil
}

// State reports the evader's phase.
func (f *FastEvader) State() EvaderState { return f.state }

// Events returns the evader's log.
func (f *FastEvader) Events() []Event { return f.events }

// SuspectEvents returns only the EventSuspect entries.
func (f *FastEvader) SuspectEvents() []Event {
	var out []Event
	for _, ev := range f.events {
		if ev.Kind == EventSuspect {
			out = append(out, ev)
		}
	}
	return out
}

func (f *FastEvader) log(at simclock.Time, kind EventKind, core int) {
	ev := Event{At: at, Kind: kind, Core: core}
	f.events = append(f.events, ev)
	f.obs.record(ev)
}

func (f *FastEvader) onWorldChange(c *hw.Core, _, newWorld hw.World) {
	engine := f.platform.Engine()
	now := engine.Now()
	if newWorld == hw.SecureWorld {
		f.secureCores[c.ID()] = now
		// The reporter on this core last published up to one sleep ago;
		// its staleness crosses the threshold at entry + threshold -
		// phase_reporter, and the first comparer to notice adds its own
		// phase.
		reporterPhase := time.Duration(f.rng.Float64() * float64(f.sleep))
		comparerPhase := time.Duration(f.rng.Float64() * float64(f.sleep))
		delay := f.threshold - reporterPhase + comparerPhase
		if delay < time.Microsecond {
			delay = time.Microsecond
		}
		f.armDetect(c.ID(), now.Add(delay))
		return
	}
	// Core back in the normal world.
	id := c.ID()
	entered, ok := f.secureCores[id]
	if !ok {
		return
	}
	delete(f.secureCores, id)
	if h, ok := f.pending[id]; ok {
		// If the secure residency was too short for staleness to cross
		// the threshold, the detection never happens: the reporter's
		// next publication resets it first.
		if now.Sub(entered)+f.sleep < f.threshold {
			h.Cancel()
			delete(f.pending, id)
		}
		// Otherwise the already-scheduled detection stands (the comparer
		// sees the stale report before a fresh one becomes visible).
	}
	// The returning core's reporter publishes within one sleep; a comparer
	// then observes the recovery.
	delay := time.Duration(f.rng.Float64()*float64(f.sleep)) + time.Duration(f.rng.Float64()*float64(f.sleep))
	if delay < time.Microsecond {
		delay = time.Microsecond
	}
	f.armRecover(id, now.Add(delay))
}

// The evader's pending events are claimed (see checkpoint.go), and each kind
// is scheduled in one place, its arm function below, which a checkpoint
// restore calls too (Rearm).

// armDetect schedules the comparer flagging core id.
func (f *FastEvader) armDetect(id int, at simclock.Time) {
	f.pending[id] = f.arm("fast-evader-detect", int64(id), at, func() {
		delete(f.pending, id)
		f.detect(id)
	})
}

// armRecover schedules the comparer's recovery observation for core id.
// Several may be in flight for the same core.
func (f *FastEvader) armRecover(id int, at simclock.Time) {
	f.arm("fast-evader-recover", int64(id), at, func() { f.recovered(id) })
}

// arm schedules fn at `at` under the evader's claim.
func (f *FastEvader) arm(name string, key int64, at simclock.Time, fn func()) simclock.Handle {
	return f.platform.Engine().Arm(simclock.Claim{Owner: ClaimOwnerFastEvader, Key: key, Name: name, When: at}, fn)
}

// detect is the comparer flagging core id.
func (f *FastEvader) detect(id int) {
	now := f.platform.Engine().Now()
	if f.suspected[id] {
		return
	}
	f.suspected[id] = true
	f.log(now, EventSuspect, id)
	if f.state != EvaderAttacking {
		return
	}
	f.beginHide()
}

// beginHide starts the Tns_recover countdown that ends with the trace
// restored.
func (f *FastEvader) beginHide() {
	f.state = EvaderHiding
	now := f.platform.Engine().Now().Duration()
	f.prof.Begin(profile.SpanEvaderWindow, -1, -1, now, "")
	f.prof.Begin(profile.SpanEvaderHide, -1, -1, now, "")
	recover := f.platform.Perf().RecoverTime(f.cleaningCoreType(), f.rootkit.TraceSize(), f.rng)
	f.armHide(f.platform.Engine().Now().Add(recover))
}

// armHide schedules the end of the hide countdown.
func (f *FastEvader) armHide(at simclock.Time) {
	f.hidePending = f.arm("fast-evader-hide", -1, at, func() {
		if err := f.rootkit.Hide(f.platform.Engine().Now()); err != nil {
			panic(fmt.Sprintf("attack: fast hide failed: %v", err))
		}
		f.state = EvaderHidden
		f.prof.End(profile.SpanEvaderHide, -1, f.platform.Engine().Now().Duration())
		f.log(f.platform.Engine().Now(), EventHidden, -1)
		// The introspection may already have finished (short rounds):
		// the comparers see every core alive, so re-arm right away.
		f.maybeReinstall()
	})
}

// maybeReinstall starts the reinstall countdown if the evader is hidden and
// every core looks alive.
func (f *FastEvader) maybeReinstall() {
	if f.state != EvaderHidden {
		return
	}
	for _, s := range f.suspected {
		if s {
			return
		}
	}
	if len(f.secureCores) > 0 {
		return
	}
	f.state = EvaderReinstalling
	f.prof.Begin(profile.SpanEvaderReinstall, -1, -1, f.platform.Engine().Now().Duration(), "")
	recover := f.platform.Perf().RecoverTime(f.cleaningCoreType(), f.rootkit.TraceSize(), f.rng)
	f.armReinstall(f.platform.Engine().Now().Add(recover))
}

// armReinstall schedules the end of the reinstall countdown.
func (f *FastEvader) armReinstall(at simclock.Time) {
	f.reinstallPending = f.arm("fast-evader-reinstall", -1, at, func() {
		if f.state != EvaderReinstalling {
			return
		}
		if err := f.rootkit.Install(f.platform.Engine().Now()); err != nil {
			panic(fmt.Sprintf("attack: fast reinstall failed: %v", err))
		}
		now := f.platform.Engine().Now().Duration()
		f.prof.End(profile.SpanEvaderReinstall, -1, now)
		f.prof.End(profile.SpanEvaderWindow, -1, now)
		f.log(f.platform.Engine().Now(), EventReinstalled, -1)
		// A fresh suspicion may have arrived mid-reinstall: hide again
		// immediately rather than attacking into a running check.
		for _, s := range f.suspected {
			if s {
				f.beginHide()
				return
			}
		}
		f.state = EvaderAttacking
	})
}

// recovered is the comparer seeing core id report again.
func (f *FastEvader) recovered(id int) {
	now := f.platform.Engine().Now()
	if !f.suspected[id] {
		return
	}
	f.suspected[id] = false
	f.log(now, EventCoreBack, id)
	f.maybeReinstall()
}

// cleaningCoreType picks the core the detecting comparer happens to run on:
// uniformly among the cores still in the normal world.
func (f *FastEvader) cleaningCoreType() hw.CoreType {
	var candidates []hw.CoreType
	for _, c := range f.platform.Cores() {
		if _, away := f.secureCores[c.ID()]; !away {
			candidates = append(candidates, c.Type())
		}
	}
	if len(candidates) == 0 {
		// Every core taken (the full-freeze defenses); cleaning will be
		// arbitrarily late anyway — draw the slow type.
		return hw.CortexA53
	}
	return candidates[f.rng.IntN(len(candidates))]
}
