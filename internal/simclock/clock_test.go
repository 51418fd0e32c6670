package simclock

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(1500 * time.Millisecond)
	if got := t1.Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := t1.Sub(t0); got != 1500*time.Millisecond {
		t.Errorf("Sub = %v, want 1.5s", got)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Error("Before/After ordering wrong")
	}
	if got := t1.String(); got != "1.5s" {
		t.Errorf("String() = %q, want \"1.5s\"", got)
	}
	if got := t1.Duration(); got != 1500*time.Millisecond {
		t.Errorf("Duration() = %v, want 1.5s", got)
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.After(30*time.Millisecond, "c", func() { order = append(order, "c") })
	e.After(10*time.Millisecond, "a", func() { order = append(order, "a") })
	e.After(20*time.Millisecond, "b", func() { order = append(order, "b") })
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Errorf("Now() = %v, want 30ms", e.Now())
	}
}

func TestEngineSameInstantFiresInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Millisecond, "ev", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of schedule order: %v", order)
		}
	}
}

func TestEngineEventsScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(time.Millisecond, "tick", tick)
		}
	}
	e.After(time.Millisecond, "tick", tick)
	e.Run()
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Now() != Time(100*time.Millisecond) {
		t.Errorf("Now() = %v, want 100ms", e.Now())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10*time.Millisecond, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(Time(5*time.Millisecond), "past", func() {})
	})
	e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.After(time.Millisecond, "doomed", func() { fired = true })
	kept := 0
	e.After(2*time.Millisecond, "kept", func() { kept++ })
	h.Cancel()
	if h.Live() {
		t.Error("Live() = true after Cancel")
	}
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if kept != 1 {
		t.Error("non-canceled event did not fire")
	}
	// Cancel after run and double-cancel are no-ops.
	h.Cancel()
	var zero Handle
	zero.Cancel() // must not panic
	if zero.Live() {
		t.Error("the zero handle reports a live event")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond} {
		d := d
		e.After(d, "ev", func() { fired = append(fired, d) })
	}
	e.RunUntil(Time(5 * time.Millisecond))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (boundary inclusive)", len(fired))
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Errorf("Now() = %v, want 5ms", e.Now())
	}
	// Clock advances to the target even with no events there.
	e.RunUntil(Time(7 * time.Millisecond))
	if e.Now() != Time(7*time.Millisecond) {
		t.Errorf("Now() = %v, want 7ms", e.Now())
	}
	e.RunFor(2 * time.Millisecond)
	if len(fired) != 3 {
		t.Errorf("fired %d events after RunFor, want 3", len(fired))
	}
}

func TestEventQueueHeapProperty(t *testing.T) {
	// Property: popping a queue filled with arbitrary times yields a
	// non-decreasing sequence, with ties broken by insertion order.
	f := func(delays []uint16) bool {
		var q eventQueue
		for i, d := range delays {
			q.push(&event{when: Time(d), seq: uint64(i)})
		}
		prevWhen := Time(-1)
		prevSeq := uint64(0)
		for {
			ev := q.pop()
			if ev == nil {
				break
			}
			if ev.when < prevWhen {
				return false
			}
			if ev.when == prevWhen && ev.seq < prevSeq {
				return false
			}
			prevWhen, prevSeq = ev.when, ev.seq
		}
		return q.len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminismAndStreamIndependence(t *testing.T) {
	a1 := NewRNG(42, "alpha")
	a2 := NewRNG(42, "alpha")
	b := NewRNG(42, "beta")
	sawDifferent := false
	for i := 0; i < 100; i++ {
		va1, va2, vb := a1.Uint64(), a2.Uint64(), b.Uint64()
		if va1 != va2 {
			t.Fatal("same seed+stream produced different sequences")
		}
		if va1 != vb {
			sawDifferent = true
		}
	}
	if !sawDifferent {
		t.Error("different streams produced identical sequences")
	}
}

func TestRNGDurationBetween(t *testing.T) {
	g := NewRNG(1, "t")
	lo, hi := 100*time.Microsecond, 300*time.Microsecond
	for i := 0; i < 1000; i++ {
		d := g.DurationBetween(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("DurationBetween out of range: %v", d)
		}
	}
	if g.DurationBetween(lo, lo) != lo {
		t.Error("degenerate range should return lo")
	}
	defer func() {
		if recover() == nil {
			t.Error("lo > hi did not panic")
		}
	}()
	g.DurationBetween(hi, lo)
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(7, "bool")
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("Bool(0.25) frequency = %v, want ~0.25", got)
	}
}

func TestDistValidate(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
		ok   bool
	}{
		{"valid", Seconds(1e-6, 2e-6, 3e-6), true},
		{"degenerate", Exact(time.Microsecond), true},
		{"negative min", Dist{Min: -1, Avg: 0, Max: 1}, false},
		{"avg below min", Dist{Min: 10, Avg: 5, Max: 20}, false},
		{"avg above max", Dist{Min: 10, Avg: 30, Max: 20}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.d.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate() error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestDistDrawBoundsAndMean(t *testing.T) {
	g := NewRNG(3, "dist")
	// Deliberately asymmetric, like the paper's A53 snapshot figures.
	d := Seconds(9.24e-9, 1.08e-8, 1.57e-8)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := d.Draw(g)
		if v < d.Min || v > d.Max {
			t.Fatalf("draw %v outside [%v, %v]", v, d.Min, d.Max)
		}
		sum += float64(v)
	}
	mean := sum / n
	if math.Abs(mean-float64(d.Avg))/float64(d.Avg) > 0.02 {
		t.Errorf("sample mean %.4g, want ~%.4g (within 2%%)", mean, float64(d.Avg))
	}
}

func TestDistDrawDegenerate(t *testing.T) {
	g := NewRNG(4, "deg")
	d := Exact(5 * time.Microsecond)
	for i := 0; i < 10; i++ {
		if got := d.Draw(g); got != 5*time.Microsecond {
			t.Fatalf("degenerate draw = %v, want 5µs", got)
		}
	}
}

func TestDistDrawProperty(t *testing.T) {
	// Property: for any ordered triple, draws stay within bounds.
	g := NewRNG(5, "prop")
	f := func(a, b, c uint32) bool {
		vals := []time.Duration{time.Duration(a), time.Duration(b), time.Duration(c)}
		// Order them.
		if vals[0] > vals[1] {
			vals[0], vals[1] = vals[1], vals[0]
		}
		if vals[1] > vals[2] {
			vals[1], vals[2] = vals[2], vals[1]
		}
		if vals[0] > vals[1] {
			vals[0], vals[1] = vals[1], vals[0]
		}
		d := Dist{Min: vals[0], Avg: vals[1], Max: vals[2]}
		for i := 0; i < 20; i++ {
			v := d.Draw(g)
			if v < d.Min || v > d.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScheduleNoHandleOrdering(t *testing.T) {
	// ScheduleAfter interleaves with At/After in strict (time, seq) order:
	// the no-handle fast path must not perturb determinism.
	e := NewEngine()
	var got []int
	e.At(20, "c", func() { got = append(got, 3) })
	e.At(10, "a", func() { got = append(got, 1) })
	e.ScheduleAfter(10, "b", func() { got = append(got, 2) }) // same instant as "a", scheduled later
	e.ScheduleAfter(30, "d", func() { got = append(got, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestHandleSemanticsUnderRecycling(t *testing.T) {
	// Event structs are recycled after firing. A Handle taken before the fire
	// must keep reporting its own event's fate even when the struct now hosts
	// a different event.
	e := NewEngine()
	fired := map[string]bool{}
	h1 := e.At(10, "first", func() { fired["first"] = true })
	e.Run()
	if !fired["first"] {
		t.Fatal("first event never fired")
	}
	// The recycled struct now hosts "second".
	h2 := e.At(20, "second", func() { fired["second"] = true })
	if h1.ev != h2.ev {
		t.Fatal("the second event did not reuse the first's struct")
	}
	// The stale handle sees its own event as gone, and canceling it must
	// not withdraw the new occupant.
	if h1.Live() {
		t.Error("a handle whose event fired reports it live")
	}
	if !h2.Live() {
		t.Error("the recycled struct's new handle reports its event gone")
	}
	h1.Cancel()
	e.Run()
	if !fired["second"] {
		t.Error("stale-handle Cancel withdrew a recycled event")
	}
	if h2.Live() {
		t.Error("a handle whose event fired reports it live")
	}
}

func TestCancelChurnKeepsQueueBounded(t *testing.T) {
	// The rearm pattern (schedule far out, cancel, reschedule) used to leave
	// every canceled event in the heap until its instant passed. With
	// compaction the pending count stays proportional to the live events.
	e := NewEngine()
	fires := 0
	e.At(1_000_000, "anchor", func() { fires++ })
	for i := 0; i < 10_000; i++ {
		h := e.At(Time(500_000+i), "churn", func() { t.Error("canceled event fired") })
		h.Cancel()
		if p := e.Pending(); p > 2*compactMinCanceled+2 {
			t.Fatalf("after %d cancels, %d events pending; compaction not bounding the heap", i+1, p)
		}
	}
	e.Run()
	if fires != 1 {
		t.Errorf("anchor fired %d times, want 1", fires)
	}
	if e.Pending() != 0 {
		t.Errorf("%d events pending after drain", e.Pending())
	}
}

func TestCompactionPreservesFireOrder(t *testing.T) {
	// Interleave live and canceled events so compaction triggers mid-build,
	// then verify the survivors still fire in exact (time, seq) order.
	e := NewEngine()
	var got []Time
	for i := 0; i < 500; i++ {
		when := Time((i*7919)%1000 + 1) // scrambled instants
		if i%3 == 0 {
			e.At(when, "live", func() { got = append(got, e.Now()) })
		} else {
			e.At(when, "doomed", func() { t.Error("canceled event fired") }).Cancel()
		}
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events fired out of order: %v after %v", got[i], got[i-1])
		}
	}
	if len(got) != 167 {
		t.Errorf("fired %d live events, want 167", len(got))
	}
}

// TestSteadyStateSchedulingDoesNotAllocate drives each scheduling call a
// periodic activity makes through the engine's free list: once the queue and
// the free list have grown to the run's size, scheduling, arming and
// canceling allocate nothing, handles included.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	claim := Claim{Owner: "test", Key: 1, Name: "armed"}
	var tick func()
	cases := []struct {
		name     string
		schedule func()
	}{
		{"ScheduleAfter", func() { e.ScheduleAfter(10, "tick", tick) }},
		{"After", func() { e.After(10, "tick", tick) }},
		{"At+Cancel", func() {
			e.At(e.Now()+1_000_000, "doomed", noop).Cancel()
			e.ScheduleAfter(10, "tick", tick)
		}},
		{"Arm", func() {
			claim.When = e.Now() + 10
			e.Arm(claim, tick)
		}},
	}
	for _, tc := range cases {
		n := 0
		tick = func() {
			if n++; n < 1000 {
				tc.schedule()
			}
		}
		run := func() {
			n = 0
			tc.schedule()
			e.Run()
		}
		run() // grow the queue and the free list to the run's size
		if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
			t.Errorf("%s: a 1000-event run allocated %.0f times", tc.name, allocs)
		}
	}
}

// TestClaimsListArmedEvents: the engine reports the claims of the live
// pending events it was armed with, in firing order and with their sequence
// numbers, skips canceled ones, and refuses while an unclaimed event is
// pending, naming the earliest.
func TestClaimsListArmedEvents(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	e.Arm(Claim{Owner: "b", Key: 2, Name: "late", When: 30, Seq: 99}, noop)
	e.Arm(Claim{Owner: "a", Key: -1, Name: "kept", When: 10, Kept: true}, noop)
	e.Arm(Claim{Owner: "a", Key: 1, Name: "doomed", When: 5}, noop).Cancel()
	e.Arm(Claim{Owner: "c", Key: 3, Name: "tie", When: 10}, noop)
	got, err := e.Claims()
	if err != nil {
		t.Fatalf("Claims: %v", err)
	}
	want := []Claim{
		{Owner: "a", Key: -1, Name: "kept", When: 10, Seq: 1, Kept: true},
		{Owner: "c", Key: 3, Name: "tie", When: 10, Seq: 3},
		{Owner: "b", Key: 2, Name: "late", When: 30, Seq: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("Claims = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("claim %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	e.At(20, "second-unclaimed", noop)
	e.At(15, "first-unclaimed", noop)
	if _, err := e.Claims(); err == nil || !strings.Contains(err.Error(), `"first-unclaimed"`) {
		t.Errorf("Claims with unclaimed events pending: err = %v, want one naming the earliest", err)
	}
	e.RunUntil(20)
	got, err = e.Claims()
	if err != nil || len(got) != 1 || got[0].Name != "late" {
		t.Errorf("after the unclaimed events fired: Claims = %+v, %v; want the one pending claim", got, err)
	}
	e.Run()
	if got, err := e.Claims(); err != nil || got != nil {
		t.Errorf("drained engine: Claims = %+v, %v; want none", got, err)
	}
}
