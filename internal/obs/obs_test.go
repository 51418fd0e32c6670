package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"satin/internal/trace"
)

func TestBusSubscribeOrder(t *testing.T) {
	b := NewBus()
	var order []string
	b.Subscribe(func(trace.Event) { order = append(order, "a") })
	b.Subscribe(func(trace.Event) { order = append(order, "b") })
	b.Subscribe(func(trace.Event) { order = append(order, "c") })
	b.Publish(trace.Event{Kind: trace.KindRound})
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("subscribers ran in order %q, want abc", got)
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	b.Publish(trace.Event{Kind: trace.KindRound}) // must not panic
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("nil bus has %d subscribers", n)
	}
}

// TestPublishNoSubscribersAllocates locks the zero-overhead claim: with no
// sinks attached, Publish must not allocate.
func TestPublishNoSubscribersAllocates(t *testing.T) {
	b := NewBus()
	e := trace.Event{At: time.Second, Kind: trace.KindRound, Core: 1, Area: 2, Detail: "clean"}
	if n := testing.AllocsPerRun(100, func() { b.Publish(e) }); n != 0 {
		t.Fatalf("Publish with no subscribers allocates %.1f per call, want 0", n)
	}
	var nilBus *Bus
	if n := testing.AllocsPerRun(100, func() { nilBus.Publish(e) }); n != 0 {
		t.Fatalf("nil-bus Publish allocates %.1f per call, want 0", n)
	}
}

// TestMetricOpsAllocationFree locks the hot-path cost of the handles,
// wired or nil.
func TestMetricOpsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{10, 20, 30})
	var nc *Counter
	var nh *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(7)
		h.Observe(15)
		nc.Inc()
		nh.Observe(15)
	}); n != 0 {
		t.Fatalf("metric ops allocate %.1f per call, want 0", n)
	}
}

func TestNilRegistryHandles(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(3)
	r.Histogram("h", []int64{1}).Observe(5)
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil-registry counter = %d", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 20})
	for _, v := range []int64{5, 10, 11, 20, 21, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 5+10+11+20+21+1000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	row, ok := r.Snapshot().Get("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := []Bucket{{LE: 10, Count: 2}, {LE: 20, Count: 2}, {LE: InfBucket, Count: 2}}
	if len(row.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", row.Buckets, want)
	}
	for i := range want {
		if row.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, row.Buckets[i], want[i])
		}
	}
	if row.Min != 5 || row.Max != 1000 {
		t.Fatalf("min=%d max=%d, want 5/1000", row.Min, row.Max)
	}
}

func TestRegistryHandlesAreCached(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter returned distinct handles for one name")
	}
	if r.Histogram("h", []int64{1}) != r.Histogram("h", []int64{9}) {
		t.Error("Histogram returned distinct handles for one name")
	}
}

// TestRegistryRejectsCrossKindNames: one name, one kind — re-registering a
// name as a different kind panics instead of producing two metrics that
// collide in Snapshot/Get.
func TestRegistryRejectsCrossKindNames(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("c")
	r.Gauge("g")
	r.Histogram("h", []int64{1})
	mustPanic("counter name as gauge", func() { r.Gauge("c") })
	mustPanic("counter name as histogram", func() { r.Histogram("c", []int64{1}) })
	mustPanic("gauge name as counter", func() { r.Counter("g") })
	mustPanic("histogram name as gauge", func() { r.Gauge("h") })
	// Same kind remains a cache hit, and the guard leaves the original
	// handles untouched.
	if r.Counter("c") == nil || r.Gauge("g") == nil || r.Histogram("h", nil) == nil {
		t.Error("guard clobbered an existing handle")
	}
	if got := len(r.Snapshot().Rows); got != 3 {
		t.Errorf("snapshot has %d rows, want 3", got)
	}
}

// TestSnapshotDeterministic: identical activity on two registries renders
// identically, regardless of creation order.
func TestSnapshotDeterministic(t *testing.T) {
	a := NewRegistry()
	a.Counter("one").Inc()
	a.Gauge("two").Set(2)
	a.Histogram("three", []int64{5}).Observe(3)

	b := NewRegistry()
	b.Histogram("three", []int64{5}).Observe(3)
	b.Gauge("two").Set(2)
	b.Counter("one").Inc()

	if a.Snapshot().String() != b.Snapshot().String() {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a.Snapshot(), b.Snapshot())
	}
	// Zero-valued metrics stay visible: row presence depends on wiring,
	// not on run activity.
	c := NewRegistry()
	c.Counter("never")
	if _, ok := c.Snapshot().Get("never"); !ok {
		t.Error("zero counter dropped from snapshot")
	}
}

func TestSnapshotCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Histogram("lat", []int64{10}).Observe(4)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"name,type,field,value\n",
		"hits,counter,value,3\n",
		"lat,histogram,count,1\n",
		"lat,histogram,le10,1\n",
		"lat,histogram,le+inf,0\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("CSV missing %q:\n%s", want, got)
		}
	}
}

func TestStreamSinkJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewStreamSink(&buf, JSONL)
	if err != nil {
		t.Fatal(err)
	}
	in := []trace.Event{
		{At: time.Second, Kind: trace.KindWorldEnter, Core: 0, Area: -1, Detail: "secure-timer"},
		{At: 2 * time.Second, Kind: trace.KindAlarm, Core: -1, Area: 17},
	}
	for _, e := range in {
		s.OnEvent(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != len(in) {
		t.Fatalf("Events() = %d, want %d", s.Events(), len(in))
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d: %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestStreamSinkCSVHeader(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewStreamSink(&buf, CSV)
	if err != nil {
		t.Fatal(err)
	}
	s.OnEvent(trace.Event{At: time.Millisecond, Kind: trace.KindRound, Core: 3, Area: 7, Detail: "clean"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "at_ns,kind,core,area,detail\n1000000,round,3,7,clean\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestStreamSinkUnknownFormat(t *testing.T) {
	if _, err := NewStreamSink(&bytes.Buffer{}, Format(0)); err == nil {
		t.Fatal("NewStreamSink accepted Format(0)")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("ReadJSONL accepted malformed JSON")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"at_ns":1}` + "\n")); err == nil {
		t.Error("ReadJSONL accepted an event without a kind")
	}
	events, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Errorf("blank lines: events=%v err=%v", events, err)
	}
}
