package simclock

// event is a single scheduled callback. Event structs are owned by the
// engine and recycled through a free list once they fire or are discarded;
// gen counts reuses so stale Handles (see clock.go) can detect that their
// event has moved on.
type event struct {
	engine   *Engine
	when     Time
	seq      uint64
	gen      uint64
	name     string
	fn       func()
	canceled bool
	index    int // position in the heap, maintained by eventQueue
	// owner, key and kept are the event's checkpoint claim (see Arm); an
	// empty owner marks an event scheduled without one.
	owner string
	key   int64
	kept  bool
}

// before reports whether a fires before b: earlier instant first, then
// scheduling order.
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events ordered by (when, seq). The seq
// tiebreak makes same-instant events fire in scheduling order, which is what
// keeps whole-simulation runs reproducible. The zero value is ready to use.
type eventQueue struct {
	items []*event
}

func (q *eventQueue) len() int { return len(q.items) }

func (q *eventQueue) less(i, j int) bool { return q.items[i].before(q.items[j]) }

func (q *eventQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}

func (q *eventQueue) push(ev *event) {
	ev.index = len(q.items)
	q.items = append(q.items, ev)
	q.up(ev.index)
}

// peek returns the earliest event without removing it, or nil if empty.
func (q *eventQueue) peek() *event {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// pop removes and returns the earliest event, or nil if the queue is empty.
func (q *eventQueue) pop() *event {
	if len(q.items) == 0 {
		return nil
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.swap(0, last)
	q.items[last] = nil
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	top.index = -1
	return top
}

// compact removes every canceled event from the heap in one pass, handing
// each to recycle, then re-establishes the heap property. Firing order is
// unaffected: canceled events would never fire, and the survivors' pop
// order is fully determined by the (when, seq) comparator regardless of
// internal array layout.
func (q *eventQueue) compact(recycle func(*event)) {
	kept := q.items[:0]
	for _, ev := range q.items {
		if ev.canceled {
			recycle(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = kept
	for i, ev := range q.items {
		ev.index = i
	}
	for i := len(q.items)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.swap(i, smallest)
		i = smallest
	}
}
