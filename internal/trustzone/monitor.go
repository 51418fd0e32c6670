// Package trustzone models the EL3 secure monitor of the paper's testbed —
// the ARM Trusted Firmware component that owns world switches. The paper's
// introspection stacks (the TSP-based baseline and SATIN) run as secure
// services (S-EL1 software) invoked by this monitor when a core's secure
// timer fires.
//
// The monitor implements the non-preemptive secure mode the paper requires
// (§II-B, §V-B): while a core executes a secure service, non-secure
// interrupts pend at the GIC (the SCR_EL3.IRQ=0 configuration) and are
// delivered only when the core returns to the normal world. Each world
// switch costs Ts_switch, drawn from the platform's calibrated model — the
// 2.38–3.60 µs the paper measured for the TSP dispatcher (§IV-B1).
package trustzone

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/obs"
	"satin/internal/profile"
	"satin/internal/simclock"
	"satin/internal/trace"
)

// Service is the S-EL1 secure software the monitor dispatches to. The
// context is only valid until ctx.Exit is called.
type Service interface {
	// OnSecureTimer handles the core's secure timer interrupt in the
	// secure world. Implementations perform their work by scheduling
	// virtual time through ctx (Elapse) and must eventually call ctx.Exit
	// exactly once to return the core to the normal world.
	OnSecureTimer(ctx *Context)
}

// EntryReason says why a core entered the secure world.
type EntryReason int

// Entry reasons.
const (
	ReasonSecureTimer EntryReason = iota + 1
	ReasonSMC
)

// String names the reason.
func (r EntryReason) String() string {
	switch r {
	case ReasonSecureTimer:
		return "secure-timer"
	case ReasonSMC:
		return "smc"
	default:
		return fmt.Sprintf("EntryReason(%d)", int(r))
	}
}

// SwitchRecord documents one completed world entry: when it was requested
// (the interrupt assertion, t_start in the paper's Figure 3), when the
// secure payload actually started (after Ts_switch), and why.
type SwitchRecord struct {
	CoreID    int
	Reason    EntryReason
	Requested simclock.Time
	Entered   simclock.Time
}

// SwitchTime reports the measured Ts_switch of this entry.
func (r SwitchRecord) SwitchTime() time.Duration { return r.Entered.Sub(r.Requested) }

// RoutingMode is the §II-B non-secure interrupt routing configuration.
type RoutingMode int

// Routing modes.
const (
	// NonPreemptive is SATIN's SCR_EL3.IRQ=0 configuration (§V-B):
	// non-secure interrupts pend at the GIC while a core runs a secure
	// payload, so the normal world cannot interfere with a check.
	NonPreemptive RoutingMode = iota + 1
	// Preemptive is the OP-TEE-style mode: non-secure interrupts are
	// handed to the normal world immediately, each preemption adding its
	// cost to the secure payload's completion time. A normal-world
	// interrupt flood can stretch a check arbitrarily — the interference
	// SATIN's design forbids.
	Preemptive
)

// String names the mode.
func (m RoutingMode) String() string {
	switch m {
	case NonPreemptive:
		return "non-preemptive"
	case Preemptive:
		return "preemptive"
	default:
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
}

// DefaultPreemptionCost models the secure-payload latency one preemption
// adds in Preemptive mode: world exit, the normal-world handler, and
// re-entry — roughly two Ts_switch plus handler work.
func DefaultPreemptionCost() simclock.Dist {
	return simclock.Seconds(20e-6, 30e-6, 45e-6)
}

// SwitchBuckets returns the histogram bounds (ns) for Ts_switch latencies:
// fine steps across the paper's measured 2.38–3.60 µs band.
func SwitchBuckets() []int64 {
	return []int64{2400, 2600, 2800, 3000, 3200, 3400, 3600, 4000}
}

// Monitor is the EL3 secure monitor.
type Monitor struct {
	platform *hw.Platform
	rng      *simclock.RNG
	service  Service
	inSecure []bool
	// timerPending[core] records a secure timer interrupt that arrived while
	// the core was already busy in the secure world (an SMC-driven payload):
	// EL3 masks IRQs during secure execution, so the fire is taken on exit.
	timerPending []bool
	switches     []SwitchRecord
	onEnter      []func(SwitchRecord)
	// switchPerturb, when set, returns extra secure-dispatch latency for a
	// world entry: time spent in the monitor/secure-OS entry path after the
	// core has already left the normal world but before the payload runs.
	// The fault-injection layer installs it to model entry-latency spikes
	// (the large software-path variance Amacher & Schiavoni measured); nil
	// (the default) costs nothing and schedules nothing.
	switchPerturb func(coreID int, base time.Duration) time.Duration

	// Observability (nil unless Observe was called; all nil-safe).
	bus       *obs.Bus
	entries   *obs.Counter
	enterHist *obs.Histogram
	exitHist  *obs.Histogram
	// prof receives world-switch and secure-dispatch spans (nil unless
	// SetProfiler was called; every emit is nil-safe).
	prof *profile.Profiler

	routing        RoutingMode
	preemptionCost simclock.Dist
	// stretch[core] accumulates preemption latency charged to the core's
	// current (and future) secure payloads; Context.Elapse consumes it.
	stretch []time.Duration
	// preemptions counts delivered preemptions per core.
	preemptions []int
}

// NewMonitor installs a monitor on the platform and claims the secure timer
// interrupt, fulfilling the §II-B guarantee that secure interrupts are
// always routed to EL3.
func NewMonitor(p *hw.Platform, seed uint64) *Monitor {
	m := &Monitor{
		platform:       p,
		rng:            simclock.NewRNG(seed, "trustzone.monitor"),
		inSecure:       make([]bool, p.NumCores()),
		timerPending:   make([]bool, p.NumCores()),
		routing:        NonPreemptive,
		preemptionCost: DefaultPreemptionCost(),
		stretch:        make([]time.Duration, p.NumCores()),
		preemptions:    make([]int, p.NumCores()),
	}
	p.GIC().Register(hw.IntSecureTimer, func(coreID int) {
		m.handleSecureTimer(coreID)
	})
	return m
}

// Observe wires the monitor into the observability layer: every completed
// world entry is published to bus as a trace event, and the per-switch
// Ts_switch costs feed enter/exit latency histograms in reg. Either
// argument may be nil.
func (m *Monitor) Observe(bus *obs.Bus, reg *obs.Registry) {
	m.bus = bus
	m.entries = reg.Counter("monitor.world_entries")
	m.enterHist = reg.Histogram("monitor.switch_enter_ns", SwitchBuckets())
	m.exitHist = reg.Histogram("monitor.switch_exit_ns", SwitchBuckets())
}

// SetProfiler attaches the causal span profiler. Each world entry opens a
// world-switch span (request → normal-world re-entry) containing a
// secure-dispatch span (request → payload start) on the core's secure
// track. Passing nil detaches; a detached monitor emits nothing and pays
// only a nil check per entry.
func (m *Monitor) SetProfiler(p *profile.Profiler) { m.prof = p }

// SetRouting configures the non-secure interrupt routing (§II-B). In
// Preemptive mode, an NS interrupt hitting a secure core is delivered
// immediately and charges PreemptionCost to the running payload.
func (m *Monitor) SetRouting(mode RoutingMode) {
	m.routing = mode
	if mode == Preemptive {
		m.platform.GIC().SetPreemptiveHook(func(_ hw.IntID, coreID int) bool {
			if !m.inSecure[coreID] {
				return false
			}
			m.stretch[coreID] += m.preemptionCost.Draw(m.rng)
			m.preemptions[coreID]++
			return true
		})
		return
	}
	m.platform.GIC().SetPreemptiveHook(nil)
}

// Routing reports the configured mode.
func (m *Monitor) Routing() RoutingMode { return m.routing }

// Preemptions reports how many times core coreID's secure payloads were
// preempted.
func (m *Monitor) Preemptions(coreID int) int { return m.preemptions[coreID] }

// SetService installs the S-EL1 payload dispatched on secure timer
// interrupts. Installing a second service replaces the first — the platform
// runs exactly one secure OS.
func (m *Monitor) SetService(s Service) { m.service = s }

// OnEnter registers fn to run whenever a core completes a world entry.
// Experiments use this to observe Ts_switch without touching internals.
func (m *Monitor) OnEnter(fn func(SwitchRecord)) {
	m.onEnter = append(m.onEnter, fn)
}

// InSecure reports whether core coreID currently executes in the secure
// world. Only simulation/instrumentation code may call this; modeled
// normal-world software must use the core-availability side channel instead.
func (m *Monitor) InSecure(coreID int) bool { return m.inSecure[coreID] }

// Switches returns the record of all completed world entries.
func (m *Monitor) Switches() []SwitchRecord { return m.switches }

// handleSecureTimer services the secure timer PPI: save the NS context,
// switch the core to the secure world (costing Ts_switch), and dispatch the
// secure service.
func (m *Monitor) handleSecureTimer(coreID int) {
	if m.service == nil {
		panic(fmt.Sprintf("trustzone: secure timer fired on core %d with no service installed", coreID))
	}
	if m.inSecure[coreID] {
		// The core is already busy in the secure world — possible only when
		// an SMC-driven payload (e.g. a SATIN re-routed round) overlaps the
		// core's own timer fire. EL3 runs with IRQs masked, so the fire is
		// held here and taken when the core exits.
		m.timerPending[coreID] = true
		return
	}
	m.enter(coreID, ReasonSecureTimer, func(ctx *Context) {
		m.service.OnSecureTimer(ctx)
	})
}

// RequestSecure switches core coreID into the secure world and runs fn
// there. It is the SMC path: normal-world software (or a test) can invoke a
// secure payload directly. It returns an error if the core is already in
// the secure world.
func (m *Monitor) RequestSecure(coreID int, fn func(ctx *Context)) error {
	if coreID < 0 || coreID >= m.platform.NumCores() {
		return fmt.Errorf("trustzone: no core %d", coreID)
	}
	if m.inSecure[coreID] {
		return fmt.Errorf("trustzone: core %d already in secure world", coreID)
	}
	if !m.platform.Core(coreID).Online() {
		return fmt.Errorf("trustzone: core %d is offline", coreID)
	}
	m.enter(coreID, ReasonSMC, fn)
	return nil
}

// SetSwitchPerturb installs a hook that adds secure-dispatch latency to
// world entries (the fault-injection layer's entry-latency spikes); nil
// removes it. The extra latency lands *after* the core leaves the normal
// world — the reporter-freeze observable TZ-Evader watches — but *before*
// the secure payload runs, so a large spike genuinely widens the evader's
// Eq. 1/2 window. Non-positive returns cost nothing.
func (m *Monitor) SetSwitchPerturb(fn func(coreID int, base time.Duration) time.Duration) {
	m.switchPerturb = fn
}

func (m *Monitor) enter(coreID int, reason EntryReason, fn func(ctx *Context)) {
	m.inSecure[coreID] = true
	requested := m.platform.Engine().Now()
	m.prof.Begin(profile.SpanWorldSwitch, coreID, -1, requested.Duration(), reason.String())
	m.prof.Begin(profile.SpanSecureDispatch, coreID, -1, requested.Duration(), "")
	switchCost := m.platform.Perf().SwitchTime(m.rng)
	m.platform.Engine().ScheduleAfter(switchCost, "world-entry", func() {
		core := m.platform.Core(coreID)
		// The core leaves the normal world here: its reporters freeze and
		// TZ-Evader's staleness clock starts ticking.
		core.SetWorld(hw.SecureWorld)
		dispatch := func() {
			rec := SwitchRecord{
				CoreID:    coreID,
				Reason:    reason,
				Requested: requested,
				Entered:   m.platform.Engine().Now(),
			}
			m.switches = append(m.switches, rec)
			m.prof.End(profile.SpanSecureDispatch, coreID, rec.Entered.Duration())
			m.entries.Inc()
			m.enterHist.Observe(int64(rec.SwitchTime()))
			m.bus.Publish(trace.Event{
				At: rec.Entered.Duration(), Kind: trace.KindWorldEnter,
				Core: coreID, Area: -1, Detail: reason.String(),
			})
			for _, fn := range m.onEnter {
				fn(rec)
			}
			ctx := &Context{monitor: m, core: core, stretchSeen: m.stretch[coreID]}
			fn(ctx)
		}
		// Perturbed entries spend extra time in the secure dispatch path
		// before the payload starts; unperturbed entries dispatch inline,
		// with no extra engine event.
		if m.switchPerturb != nil {
			if extra := m.switchPerturb(coreID, switchCost); extra > 0 {
				m.platform.Engine().ScheduleAfter(extra, "secure-dispatch", dispatch)
				return
			}
		}
		dispatch()
	})
}

// exit returns the core to the normal world, costing another Ts_switch for
// the secure-context save and NS-context restore.
func (m *Monitor) exit(coreID int) {
	switchCost := m.platform.Perf().SwitchTime(m.rng)
	m.exitHist.Observe(int64(switchCost))
	m.platform.Engine().ScheduleAfter(switchCost, "world-exit", func() {
		m.inSecure[coreID] = false
		m.platform.Core(coreID).SetWorld(hw.NormalWorld)
		m.prof.End(profile.SpanWorldSwitch, coreID, m.platform.Engine().Now().Duration())
		if m.timerPending[coreID] {
			// A secure timer fire was held while the core ran an SMC
			// payload; with IRQs unmasked again it traps straight back in.
			m.timerPending[coreID] = false
			m.handleSecureTimer(coreID)
		}
	})
}

// Context is the execution context of a secure payload on one core.
type Context struct {
	monitor *Monitor
	core    *hw.Core
	exited  bool
	// stretchSeen is how much of the core's accumulated preemption
	// latency this context has already absorbed.
	stretchSeen time.Duration
}

// Core returns the core the payload runs on.
func (c *Context) Core() *hw.Core { return c.core }

// Now reports the current virtual time.
func (c *Context) Now() simclock.Time { return c.monitor.platform.Engine().Now() }

// Platform exposes the hardware for register access. Payload code accesses
// secure registers with hw.SecureWorld privilege.
func (c *Context) Platform() *hw.Platform { return c.monitor.platform }

// Elapse models the payload consuming d of CPU time, then continues with
// fn. In Preemptive routing, normal-world interrupts that landed during the
// window push fn back by their accumulated cost — the interference a flood
// exploits. Calling Elapse after Exit is a payload bug and panics.
func (c *Context) Elapse(d time.Duration, fn func()) {
	if c.exited {
		panic("trustzone: Elapse after Exit")
	}
	m := c.monitor
	id := c.core.ID()
	if m.routing == NonPreemptive && m.stretch[id] == c.stretchSeen {
		// No preemption can land during the window (the GIC hook is nil in
		// NonPreemptive routing) and no earlier stretch is owed, so fn fires
		// exactly d from now — schedule it directly, with no closure. This is
		// the path every SATIN chunk read takes, thousands of times per scan.
		m.platform.Engine().ScheduleAfter(d, "secure-work", fn)
		return
	}
	var fire func()
	fire = func() {
		accrued := m.stretch[id] - c.stretchSeen
		if accrued > 0 {
			c.stretchSeen += accrued
			m.platform.Engine().ScheduleAfter(accrued, "secure-work", fire)
			return
		}
		fn()
	}
	m.platform.Engine().ScheduleAfter(d, "secure-work", fire)
}

// Exit returns the core to the normal world. It must be called exactly once
// per entry; a second call panics.
func (c *Context) Exit() {
	if c.exited {
		panic("trustzone: double Exit")
	}
	c.exited = true
	c.monitor.exit(c.core.ID())
}
