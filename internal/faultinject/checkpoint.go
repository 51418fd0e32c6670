package faultinject

import (
	"time"

	"satin/internal/simclock"
)

// Checkpoint support. The injector is the one component whose pending events
// are NOT re-armed on restore: a forked scenario is constructed from its own
// member spec, so Install has already scheduled its DVFS and hotplug events
// by the time the snapshot is applied. Those construction-scheduled events
// carry Kept claims (scheduleAt): restore finds them pending and re-arms
// nothing for them. Their construction-era sequence numbers are smaller than
// any re-armed claim's fresh number, which reproduces the from-scratch firing
// order at equal instants: in the original run too, the injector scheduled
// before anything else fired.
//
// This only works for plans whose observable effects all land strictly after
// the checkpoint instant; ForkableAfter is the gate.

// ClaimOwnerInjector names the injector's Kept claims.
const ClaimOwnerInjector = "faultinject"

// ForkableAfter reports whether a run carrying this plan can be forked from a
// checkpoint taken at instant t. Rate jitter, IRQ faults, and switch spikes
// perturb the run from the first instant (or nondeterministically relative to
// the snapshot's claims), so only scheduled DVFS and hotplug faults are
// forkable — and every one must fire strictly after t, or the prefix the
// checkpoint replays would already differ from the faulted run.
func (p Plan) ForkableAfter(t simclock.Time) bool {
	if p.RateJitter != 0 || p.IRQ.enabled() || p.Switch.enabled() {
		return false
	}
	for _, s := range p.DVFS {
		if !simclock.Time(s.At).After(t) {
			return false
		}
	}
	for _, h := range p.Hotplug {
		if !simclock.Time(h.At).After(t) {
			return false
		}
	}
	return true
}

// FirstFaultAt reports the earliest scheduled fault instant, and whether the
// plan schedules any. Campaign prefix grouping uses it to cap the shared
// barrier below every member's first divergence.
func (p Plan) FirstFaultAt() (time.Duration, bool) {
	var first time.Duration
	found := false
	for _, s := range p.DVFS {
		if !found || s.At < first {
			first, found = s.At, true
		}
	}
	for _, h := range p.Hotplug {
		if !found || h.At < first {
			first, found = h.At, true
		}
	}
	return first, found
}
