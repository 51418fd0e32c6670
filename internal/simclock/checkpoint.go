package simclock

import (
	"fmt"
	"sort"
)

// This file is the engine half of the checkpoint/fork protocol (see
// internal/checkpoint and docs/CHECKPOINT.md). Event callbacks are closures
// and cannot be serialized, so a snapshot never stores the queue itself.
// Instead every event a checkpoint may capture is scheduled from its Claim
// (Arm), and the event carries that claim until it fires; a checkpoint is
// valid only at a *claimable instant* — when every live pending event
// carries one (Claims). On restore, a freshly constructed scenario cancels
// its own construction-era events and re-arms each claim through the owning
// component, in (when, seq) order, so the continuation fires in exactly the
// order the original run would have.

// Claim is one component's declaration of ownership of a pending event. Owner
// names the component ("hw.timer", "core.satin", ...), Key is a component-
// chosen argument (typically a core ID) sufficient to rebuild the callback,
// and Name is the event's scheduled name, which the component uses to pick
// the right callback when one owner schedules several kinds. Seq orders
// same-instant claims at capture time; it is not stable across a restore
// (re-armed events get fresh sequence numbers in claim order, which preserves
// the firing order — the only thing outputs can observe).
//
// A Kept claim marks an event the restored scenario's own construction
// already scheduled (fault-injection DVFS/hotplug events): it is present at
// restore but not re-armed.
type Claim struct {
	Owner string `json:"owner"`
	Key   int64  `json:"key"`
	Name  string `json:"name"`
	When  Time   `json:"when"`
	Seq   uint64 `json:"seq"`
	Kept  bool   `json:"kept,omitempty"`
}

// Arm schedules fn at c.When under c.Name, like At, and records the claim's
// owner (which must not be empty), key and Kept flag on the event, so Claims
// reports it for as long as it is pending. c.Seq is ignored: the event takes
// the engine's next sequence number. Components call Arm both where they first schedule a
// claimed event and where a restore re-arms it.
func (e *Engine) Arm(c Claim, fn func()) Handle {
	ev := e.schedule(c.When, c.Name, fn)
	ev.owner, ev.key, ev.kept = c.Owner, c.Key, c.Kept
	return Handle{ev: ev, gen: ev.gen}
}

// Claims lists the claims of the live pending events in (when, seq) order,
// each with its event's sequence number. If any live event was scheduled
// without a claim, the instant is not claimable, and Claims fails naming the
// earliest such event. Canceled events still sitting in the heap are skipped
// (they would never fire). With no claim pending the list is nil, which a
// snapshot's JSON records as null.
func (e *Engine) Claims() ([]Claim, error) {
	var claimed []*event
	var unclaimed *event
	for _, ev := range e.queue.items {
		switch {
		case ev.canceled:
		case ev.owner == "":
			if unclaimed == nil || ev.before(unclaimed) {
				unclaimed = ev
			}
		default:
			claimed = append(claimed, ev)
		}
	}
	if unclaimed != nil {
		return nil, fmt.Errorf("simclock: pending event %q at %v (seq %d) is unclaimed", unclaimed.name, unclaimed.when, unclaimed.seq)
	}
	sort.Slice(claimed, func(i, j int) bool { return claimed[i].before(claimed[j]) })
	var claims []Claim
	for _, ev := range claimed {
		claims = append(claims, Claim{Owner: ev.owner, Key: ev.key, Name: ev.name, When: ev.when, Seq: ev.seq, Kept: ev.kept})
	}
	return claims, nil
}

// RestoreClock moves the clock to the checkpoint instant and restores the
// dispatch counter, the two pieces of engine state a snapshot carries. It is
// called mid-restore, after the fresh scenario's construction-era events have
// been canceled but before claims are re-armed; any live event still queued
// before the new instant would be a causality violation and is rejected.
// Canceled events below the new instant are harmless — they are lazily
// discarded without touching the clock.
func (e *Engine) RestoreClock(now Time, dispatched uint64) error {
	for _, ev := range e.queue.items {
		if !ev.canceled && ev.when < now {
			return fmt.Errorf("simclock: cannot restore clock to %v: live event %q still pending at %v", now, ev.name, ev.when)
		}
	}
	e.now = now
	e.dispatched = dispatched
	return nil
}
