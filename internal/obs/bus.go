// Package obs is the simulation's live observability layer: an event bus
// that streams trace.Events to subscribers as components emit them, plus a
// metrics registry of deterministic counters, gauges, and fixed-bucket
// histograms.
//
// Everything here is driven by virtual time and plain integers — no wall
// clock, no maps iterated in undefined order — so any snapshot or exported
// stream is byte-identical across runs and across worker counts.
//
// The layer is zero-overhead when disabled: a nil *Bus publishes to nobody,
// a Bus with no subscribers returns before touching the event, and nil
// metric handles (a component that was never Observe'd) make every Add and
// Observe a nil-check. None of these paths allocate.
//
// Sinks are never removed. From inside Publish a sink may subscribe another
// sink or publish another event; Bus says what each sink then sees.
package obs

import "satin/internal/trace"

// SinkFunc receives one published event. Sinks run synchronously on the
// publishing goroutine (the simulation is single-threaded), in subscription
// order.
type SinkFunc func(trace.Event)

// Bus fans published trace.Events out to subscribers. The zero value and
// nil are both usable publishers (events go nowhere). A sink stays
// subscribed for the bus's lifetime.
//
// Publish is re-entrant in two ways: a sink may Subscribe, and the new sink
// first sees the next event, never the one in flight; and a sink may
// Publish recursively, and the inner event reaches every sink subscribed at
// that moment before the outer event moves on to the next sink.
type Bus struct {
	subs []SinkFunc
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers fn. Subscribers are invoked in subscription order.
func (b *Bus) Subscribe(fn SinkFunc) {
	b.subs = append(b.subs, fn)
}

// Subscribers reports how many sinks are attached.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	return len(b.subs)
}

// Publish delivers e to every subscriber in subscription order. It is safe
// on a nil bus and allocates nothing.
func (b *Bus) Publish(e trace.Event) {
	if b == nil {
		return
	}
	// The range expression is read once, so a sink that subscribes from
	// inside this loop lengthens b.subs but not the slice being ranged over.
	for _, fn := range b.subs {
		fn(e)
	}
}
