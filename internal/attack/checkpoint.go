package attack

import (
	"fmt"
	"sort"

	"satin/internal/simclock"
)

// Checkpoint support. The fast evader owns four kinds of pending events —
// per-core detections, recovery observations, and the at-most-one hide or
// reinstall countdown — all scheduled under its claim so a checkpoint
// captures them. The rootkit and the interrupt flood are simpler: the
// rootkit is pure state (its memory writes ride the copy-on-write page
// capture), and the flood owns exactly one pending tick.
//
// Naming note: the captured-state structs elsewhere are called XState, but
// RootkitState already names the hidden/active enum, so the attack package
// uses XCheckpoint instead.

// Claim owners for this package's pending events.
const (
	ClaimOwnerFastEvader = "attack.fastevader"
	ClaimOwnerFlood      = "attack.flood"
)

// FastEvaderCheckpoint is the fast evader's state at a claimable instant.
type FastEvaderCheckpoint struct {
	RNG   []byte      `json:"rng"`
	State EvaderState `json:"state"`
	// Suspected lists the cores currently flagged by a comparer, sorted. A
	// core whose suspicion was cleared is equivalent to one never suspected,
	// so cleared entries are not recorded.
	Suspected []int   `json:"suspected"`
	Events    []Event `json:"events"`
}

// CheckpointState captures the evader's state. At a claimable instant every
// core is back in the normal world, so the away-core map must be empty; a
// populated map means the caller did not step to a claimable instant.
func (f *FastEvader) CheckpointState() (FastEvaderCheckpoint, error) {
	if !f.started {
		return FastEvaderCheckpoint{}, fmt.Errorf("attack: checkpointing a fast evader that was never started")
	}
	if len(f.secureCores) != 0 {
		return FastEvaderCheckpoint{}, fmt.Errorf("attack: %d cores are away in the secure world at the checkpoint instant", len(f.secureCores))
	}
	rng, err := f.rng.MarshalState()
	if err != nil {
		return FastEvaderCheckpoint{}, fmt.Errorf("attack: marshaling fast evader rng: %w", err)
	}
	var suspected []int
	for id, s := range f.suspected {
		if s {
			suspected = append(suspected, id)
		}
	}
	sort.Ints(suspected)
	return FastEvaderCheckpoint{
		RNG:       rng,
		State:     f.state,
		Suspected: suspected,
		Events:    append([]Event(nil), f.events...),
	}, nil
}

// RestoreState overwrites the evader's state with a captured one. A freshly
// started evader schedules nothing (Start only installs the rootkit and hooks
// the world-change observable), so there is nothing to cancel; the snapshot's
// pending events are re-armed afterwards via Rearm.
func (f *FastEvader) RestoreState(st FastEvaderCheckpoint) error {
	if !f.started {
		return fmt.Errorf("attack: restoring into a fast evader that was never started")
	}
	if len(f.pending) != 0 || f.hidePending.Live() || f.reinstallPending.Live() {
		return fmt.Errorf("attack: restoring into a fast evader with pending events")
	}
	if err := f.rng.RestoreState(st.RNG); err != nil {
		return fmt.Errorf("attack: restoring fast evader rng: %w", err)
	}
	f.state = st.State
	f.suspected = make(map[int]bool, len(st.Suspected))
	for _, id := range st.Suspected {
		f.suspected[id] = true
	}
	f.events = append(f.events[:0], st.Events...)
	return nil
}

// Rearm reschedules one claimed pending event at its recorded instant,
// rebuilding the callback the original scheduling site would have installed.
func (f *FastEvader) Rearm(claim simclock.Claim) error {
	switch claim.Name {
	case "fast-evader-detect":
		id := int(claim.Key)
		if id < 0 || id >= f.platform.NumCores() {
			return fmt.Errorf("attack: detect claim for unknown core %d", id)
		}
		if _, ok := f.pending[id]; ok {
			return fmt.Errorf("attack: core %d already has a pending detection", id)
		}
		f.armDetect(id, claim.When)
	case "fast-evader-recover":
		id := int(claim.Key)
		if id < 0 || id >= f.platform.NumCores() {
			return fmt.Errorf("attack: recover claim for unknown core %d", id)
		}
		f.armRecover(id, claim.When)
	case "fast-evader-hide":
		if f.hidePending.Live() {
			return fmt.Errorf("attack: hide countdown already pending")
		}
		f.armHide(claim.When)
	case "fast-evader-reinstall":
		if f.reinstallPending.Live() {
			return fmt.Errorf("attack: reinstall countdown already pending")
		}
		f.armReinstall(claim.When)
	default:
		return fmt.Errorf("attack: fast evader claim names unknown event %q", claim.Name)
	}
	return nil
}

// RootkitCheckpoint is the rootkit's state at a checkpoint. The attacking
// trace bytes themselves ride the memory capture.
type RootkitCheckpoint struct {
	State       RootkitState `json:"state"`
	Captures    int          `json:"captures"`
	Transitions []Transition `json:"transitions"`
}

// CheckpointState captures the rootkit's state.
func (r *Rootkit) CheckpointState() RootkitCheckpoint {
	return RootkitCheckpoint{
		State:       r.state,
		Captures:    r.captures,
		Transitions: append([]Transition(nil), r.transitions...),
	}
}

// RestoreState overwrites the rootkit's state with a captured one. The fresh
// scenario's own Install (run at construction) left a boot-instant
// transition; the snapshot's log replaces it wholesale.
func (r *Rootkit) RestoreState(st RootkitCheckpoint) {
	r.state = st.State
	r.captures = st.Captures
	r.transitions = append(r.transitions[:0], st.Transitions...)
}

// FloodCheckpoint is the interrupt flood's state at a checkpoint.
type FloodCheckpoint struct {
	Running bool `json:"running"`
	Raised  int  `json:"raised"`
}

// CheckpointState captures the flood's state.
func (f *InterruptFlood) CheckpointState() FloodCheckpoint {
	return FloodCheckpoint{Running: f.running, Raised: f.raised}
}

// RestoreState overwrites the flood's state with a captured one, canceling
// the tick the fresh scenario's Start scheduled; the snapshot's tick is
// re-armed afterwards via RearmTick.
func (f *InterruptFlood) RestoreState(st FloodCheckpoint) {
	f.tickPending.Cancel()
	f.running = st.Running
	f.raised = st.Raised
}

// RearmTick reschedules the claimed tick at its recorded instant.
func (f *InterruptFlood) RearmTick(claim simclock.Claim) error {
	if f.tickPending.Live() {
		return fmt.Errorf("attack: flood tick already pending")
	}
	if claim.Name != floodTickName {
		return fmt.Errorf("attack: flood claim names %q, want %q", claim.Name, floodTickName)
	}
	f.armTick(claim.When)
	return nil
}
