package core

import (
	"fmt"
	"sort"

	"satin/internal/simclock"
)

// Checkpoint support. SATIN's pending events are the per-core secure timer
// fires (owned by hw.Core) and, under hotplug fault plans, the re-routed
// wake events in the orphans map — the only events this service claims
// itself (armOrphan). Everything else is pure state: the area set, the wake
// queue, the round/alarm record, and the selection RNG.

// ClaimOwnerSATIN names SATIN's re-routed wake claims in a checkpoint.
const ClaimOwnerSATIN = "core.satin"

// SATINState is the service's state at a claimable instant.
type SATINState struct {
	RNG             []byte          `json:"rng"`
	AreaRemaining   []int           `json:"area_remaining"`
	AreaRefills     int             `json:"area_refills"`
	QueueSlots      []simclock.Time `json:"queue_slots"`
	QueueAssignment []int           `json:"queue_assignment"`
	QueueTaken      []bool          `json:"queue_taken"`
	QueueHorizon    simclock.Time   `json:"queue_horizon"`
	QueueRefreshes  int             `json:"queue_refreshes"`
	Rounds          []Round         `json:"rounds"`
	Alarms          []Alarm         `json:"alarms"`
	Uncovered       []int           `json:"uncovered"`
	Reroutes        int             `json:"reroutes"`
}

// CheckpointState captures the service's state.
func (s *SATIN) CheckpointState() (SATINState, error) {
	if !s.started {
		return SATINState{}, fmt.Errorf("core: checkpointing a SATIN that was never started")
	}
	rng, err := s.rng.MarshalState()
	if err != nil {
		return SATINState{}, fmt.Errorf("core: marshaling SATIN rng: %w", err)
	}
	uncovered := make([]int, 0, len(s.uncovered))
	for owner := range s.uncovered {
		uncovered = append(uncovered, owner)
	}
	sort.Ints(uncovered)
	return SATINState{
		RNG:             rng,
		AreaRemaining:   append([]int(nil), s.areaSet.remaining...),
		AreaRefills:     s.areaSet.refills,
		QueueSlots:      append([]simclock.Time(nil), s.queue.slots...),
		QueueAssignment: append([]int(nil), s.queue.assignment...),
		QueueTaken:      append([]bool(nil), s.queue.taken...),
		QueueHorizon:    s.queue.horizon,
		QueueRefreshes:  s.queue.refreshes,
		Rounds:          append([]Round(nil), s.rounds...),
		Alarms:          append([]Alarm(nil), s.alarms...),
		Uncovered:       uncovered,
		Reroutes:        s.reroutes,
	}, nil
}

// RestoreState overwrites the service's state with a captured one. SATIN
// schedules no events at construction (the secure timers it programs belong
// to hw.Core), so there is nothing to cancel; re-routed wakes from the
// snapshot are re-armed afterwards via RearmOrphan.
func (s *SATIN) RestoreState(st SATINState) error {
	if !s.started {
		return fmt.Errorf("core: restoring into a SATIN that was never started")
	}
	if len(s.orphans) != 0 {
		return fmt.Errorf("core: restoring into a SATIN with %d live re-routed wakes", len(s.orphans))
	}
	if len(st.QueueSlots) != len(s.queue.slots) {
		return fmt.Errorf("core: snapshot wake queue has %d slots, scenario has %d", len(st.QueueSlots), len(s.queue.slots))
	}
	if err := s.rng.RestoreState(st.RNG); err != nil {
		return fmt.Errorf("core: restoring SATIN rng: %w", err)
	}
	s.areaSet.remaining = append(s.areaSet.remaining[:0], st.AreaRemaining...)
	s.areaSet.refills = st.AreaRefills
	copy(s.queue.slots, st.QueueSlots)
	copy(s.queue.assignment, st.QueueAssignment)
	copy(s.queue.taken, st.QueueTaken)
	s.queue.horizon = st.QueueHorizon
	s.queue.refreshes = st.QueueRefreshes
	s.rounds = append(s.rounds[:0], st.Rounds...)
	s.alarms = append(s.alarms[:0], st.Alarms...)
	s.uncovered = make(map[int]bool, len(st.Uncovered))
	for _, owner := range st.Uncovered {
		s.uncovered[owner] = true
	}
	s.reroutes = st.Reroutes
	s.queueDepth.Set(int64(s.queue.Pending()))
	return nil
}

// RearmOrphan reschedules one claimed re-routed wake at its recorded
// instant, rebuilding the callback scheduleOrphan (or its retry path) would
// have installed.
func (s *SATIN) RearmOrphan(claim simclock.Claim) error {
	owner := int(claim.Key)
	if owner < 0 || owner >= len(s.partCores) {
		return fmt.Errorf("core: re-routed wake claim for unknown slot owner %d", owner)
	}
	if _, ok := s.orphans[owner]; ok {
		return fmt.Errorf("core: slot owner %d already has a re-routed wake", owner)
	}
	slotName := fmt.Sprintf("satin-reroute-slot%d", owner)
	retryName := fmt.Sprintf("satin-reroute-retry%d", owner)
	if claim.Name != slotName && claim.Name != retryName {
		return fmt.Errorf("core: claim names %q, want %q or %q", claim.Name, slotName, retryName)
	}
	s.armOrphan(owner, claim.Name, claim.When)
	return nil
}
