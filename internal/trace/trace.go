// Package trace assembles human- and machine-readable timelines of a
// simulation run: world switches, introspection rounds, alarms, and evader
// reactions in one time-ordered event stream. Components publish each
// Event on the obs bus as it happens, and a Timeline subscribed to that bus
// (the facade installs one when it builds a scenario) accumulates them;
// this package orders, renders, exports and diffs what it accumulated.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Kind classifies a timeline event.
type Kind string

// Event kinds.
const (
	KindWorldEnter  Kind = "world-enter"
	KindRound       Kind = "round"
	KindAlarm       Kind = "alarm"
	KindSuspect     Kind = "suspect"
	KindHidden      Kind = "hidden"
	KindCoreBack    Kind = "core-back"
	KindReinstalled Kind = "reinstalled"
	KindGuardDeny   Kind = "guard-deny"
	// KindFault marks an injected perturbation (DVFS step, hotplug
	// transition, delayed/dropped interrupt, switch-latency spike) or the
	// system's reaction to one (a SATIN round re-routed off an offline
	// core). Detail carries the specifics.
	KindFault Kind = "fault"
	// KindCell marks one completed campaign cell on a satin-serve job's
	// event stream, the only place it appears. Unlike every other kind it
	// is wall-clock territory: campaigns run across universes, so At is
	// always zero, Area carries the cell index, and Detail the cell label
	// and outcome.
	KindCell Kind = "cell"
)

// Kinds lists every event kind, in declaration order. New kinds must be
// added here: the timeline column width is derived from this set, and the
// exhaustiveness is what keeps rendered timelines column-stable.
func Kinds() []Kind {
	return []Kind{
		KindWorldEnter, KindRound, KindAlarm, KindSuspect, KindHidden,
		KindCoreBack, KindReinstalled, KindGuardDeny, KindFault, KindCell,
	}
}

// kindPad is the column width the Kind field is left-padded to: the longest
// kind plus one space of separation. Derived, not hard-coded, so adding a
// longer kind widens every line instead of silently breaking alignment.
// (Widening it changes the rendered timelines — regenerate the goldens.)
var kindPad = func() int {
	w := 0
	for _, k := range Kinds() {
		if len(k) > w {
			w = len(k)
		}
	}
	return w + 1
}()

// Event is one timeline entry.
type Event struct {
	// At is the virtual instant, as a duration since boot.
	At time.Duration `json:"at_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Core is the core involved, or -1.
	Core int `json:"core"`
	// Area is the introspection area involved, or -1.
	Area int `json:"area"`
	// Detail is a free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// String renders one line.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%12v] %-*s", e.At.Truncate(time.Microsecond), kindPad, string(e.Kind))
	if e.Core >= 0 {
		fmt.Fprintf(&sb, " core=%d", e.Core)
	}
	if e.Area >= 0 {
		fmt.Fprintf(&sb, " area=%d", e.Area)
	}
	if e.Detail != "" {
		fmt.Fprintf(&sb, " %s", e.Detail)
	}
	return sb.String()
}

// kindRank orders events sharing an instant: world entries precede the
// rounds they enabled, rounds precede the alarms they raised (a dirty
// round's Finished IS its alarm's At), and evader reactions come last.
// This reproduces the grouping of the original post-hoc timeline merge, so
// a timeline filled by streaming subscription renders byte-identically to
// one assembled from the component logs after the run.
func kindRank(k Kind) int {
	switch k {
	case KindWorldEnter:
		return 0
	case KindRound:
		return 1
	case KindAlarm:
		return 2
	case KindSuspect, KindHidden, KindCoreBack, KindReinstalled:
		return 3
	default:
		return 4
	}
}

// Timeline is a collection of events, sorted on demand. It doubles as a
// bus sink: subscribe its Add method to stream events in as they happen.
type Timeline struct {
	events []Event
	sorted bool
}

// Add appends events.
func (t *Timeline) Add(events ...Event) {
	t.events = append(t.events, events...)
	t.sorted = false
}

// Observe appends one event — the allocation-light single-event form of
// Add, suitable as a bus subscriber.
func (t *Timeline) Observe(e Event) {
	t.events = append(t.events, e)
	t.sorted = false
}

// Events returns the events in (time, kind rank) order, stable within ties.
func (t *Timeline) Events() []Event {
	if !t.sorted {
		sort.SliceStable(t.events, func(i, j int) bool {
			if t.events[i].At != t.events[j].At {
				return t.events[i].At < t.events[j].At
			}
			return kindRank(t.events[i].Kind) < kindRank(t.events[j].Kind)
		})
		t.sorted = true
	}
	return t.events
}

// Filter returns the ordered events matching any of the kinds.
func (t *Timeline) Filter(kinds ...Kind) []Event {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range t.Events() {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// Len reports the event count.
func (t *Timeline) Len() int { return len(t.events) }

// CheckpointEvents returns a copy of the events in their current storage
// order — insertion (publish) order on a timeline that was never sorted.
// Republishing the copy in order through the bus a fresh timeline subscribes
// to (as a scenario restore does) reproduces Events()'s output exactly: the
// (time, kind rank) sort is stable, so storage order only matters within
// rank ties, and it round-trips unchanged.
func (t *Timeline) CheckpointEvents() []Event {
	return append([]Event(nil), t.events...)
}

// WriteText renders one line per event.
func (t *Timeline) WriteText(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return fmt.Errorf("trace: writing text: %w", err)
		}
	}
	return nil
}

// CheckOrdered verifies that the events' timestamps are non-decreasing, as
// every stream exported by a live run must be (the bus publishes in engine
// dispatch order). It returns an error naming the first out-of-order pair.
func CheckOrdered(events []Event) error {
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			return fmt.Errorf("trace: event %d (%s at %v) precedes event %d (%s at %v): stream is out of order",
				i, events[i].Kind, events[i].At, i-1, events[i-1].Kind, events[i-1].At)
		}
	}
	return nil
}

// WriteJSON renders the ordered events as a JSON array.
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t.Events()); err != nil {
		return fmt.Errorf("trace: writing JSON: %w", err)
	}
	return nil
}
