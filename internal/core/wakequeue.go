package core

import (
	"time"

	"satin/internal/simclock"
)

// WakeQueue implements §V-D's multi-core collaboration: a queue of n
// wake-up times in secure memory, randomly assigned to the n cores. Each
// core, when it wakes, extracts its assigned slot to program its own secure
// timer for the next generation — no cross-core interrupts, so the normal
// world never sees which core wakes next or when. When all n slots are
// extracted, the queue refreshes with n new times and a new random
// assignment.
//
// Times within a generation are spaced tp apart (plus the ±tp uniform
// deviation of §V-C when enabled), so system-wide the average gap between
// consecutive introspection rounds is tp while any individual gap ranges
// over [0, 2·tp].
type WakeQueue struct {
	tp        time.Duration
	deviation bool
	rng       *simclock.RNG

	slots      []simclock.Time
	assignment []int // assignment[coreID] = slot index
	taken      []bool
	horizon    simclock.Time // end of the current generation's schedule
	refreshes  int
}

// NewWakeQueue builds the queue for n cores and seeds the first generation
// starting at now — the trusted-boot initialization of §V-C.
func NewWakeQueue(n int, tp time.Duration, deviation bool, rng *simclock.RNG, now simclock.Time) *WakeQueue {
	q := &WakeQueue{tp: tp, deviation: deviation, rng: rng}
	q.slots = make([]simclock.Time, n)
	q.assignment = make([]int, n)
	q.taken = make([]bool, n)
	q.horizon = now
	q.refresh()
	q.refreshes = 0
	return q
}

// refresh generates n new wake times continuing from the horizon and a new
// random core→slot assignment.
func (q *WakeQueue) refresh() {
	base := q.horizon
	for k := range q.slots {
		t := base.Add(time.Duration(k+1) * q.tp)
		if q.deviation {
			// td uniform in [-tp, +tp] (§V-C). The conversion rounds the
			// inlined Float64's product, so arm64 cannot fuse it into the
			// add (make fma-check).
			dev := time.Duration((float64(q.rng.Float64())*2 - 1) * float64(q.tp))
			t = t.Add(dev)
		}
		if t.Before(base) {
			t = base
		}
		q.slots[k] = t
	}
	perm := q.rng.Perm(len(q.slots))
	copy(q.assignment, perm)
	for i := range q.taken {
		q.taken[i] = false
	}
	q.horizon = base.Add(time.Duration(len(q.slots)) * q.tp)
	q.refreshes++
}

// Next extracts the wake time assigned to slot owner `owner` (a
// participating core's index). If the owner's slot in the current
// generation is already taken, the queue refreshes first (every owner
// extracts exactly once per generation, so a second request means a new
// generation has begun). The returned time is never before now: a deviation
// that landed in the past is clamped, matching a timer whose condition is
// already met firing immediately.
func (q *WakeQueue) Next(owner int, now simclock.Time) simclock.Time {
	slot := q.assignment[owner]
	if q.taken[slot] {
		q.refresh()
		slot = q.assignment[owner]
	}
	q.taken[slot] = true
	t := q.slots[slot]
	if t.Before(now) {
		t = now
	}
	return t
}

// Pending reports how many slots of the current generation are still
// unextracted — the queue depth an observability gauge tracks.
func (q *WakeQueue) Pending() int {
	n := 0
	for _, tk := range q.taken {
		if !tk {
			n++
		}
	}
	return n
}

// AllTaken reports whether the current generation is exhausted.
func (q *WakeQueue) AllTaken() bool {
	for _, tk := range q.taken {
		if !tk {
			return false
		}
	}
	return true
}

// Refreshes reports how many generations have been regenerated after boot.
func (q *WakeQueue) Refreshes() int { return q.refreshes }
