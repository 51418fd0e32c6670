package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"satin/internal/trace"
)

func busEvent(at time.Duration) trace.Event {
	return trace.Event{At: at, Kind: trace.KindRound, Core: 0, Area: 1}
}

// TestSubscribeDuringPublish: a sink added mid-publish first sees the next
// event, never the in-flight one.
func TestSubscribeDuringPublish(t *testing.T) {
	b := NewBus()
	var got []time.Duration
	added := false
	b.Subscribe(func(e trace.Event) {
		if !added {
			added = true
			b.Subscribe(func(e trace.Event) { got = append(got, e.At) })
		}
	})
	b.Publish(busEvent(1))
	b.Publish(busEvent(2))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("mid-publish subscriber saw %v, want [2ns]", got)
	}
}

// TestRecursivePublish: a sink that publishes from inside a publish reaches
// every sink once per publish call, the inner event before the outer one
// moves on to the next sink.
func TestRecursivePublish(t *testing.T) {
	b := NewBus()
	var got []string
	record := func(name string) SinkFunc {
		return func(e trace.Event) { got = append(got, fmt.Sprintf("%s:%d", name, e.At)) }
	}
	b.Subscribe(func(e trace.Event) {
		got = append(got, fmt.Sprintf("a:%d", e.At))
		if e.At == 1 {
			b.Publish(busEvent(99)) // recursive frame
		}
	})
	b.Subscribe(record("b"))
	b.Subscribe(record("c"))
	b.Publish(busEvent(1))
	b.Publish(busEvent(2))
	want := "a:1 a:99 b:99 c:99 b:1 c:1 a:2 b:2 c:2"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("deliveries %q, want %q", s, want)
	}
}

// TestPublishStillAllocationFree: publishing to an attached sink must not
// cost an allocation on the hot path.
func TestPublishStillAllocationFree(t *testing.T) {
	b := NewBus()
	sink := 0
	b.Subscribe(func(trace.Event) { sink++ })
	e := busEvent(1)
	if n := testing.AllocsPerRun(200, func() { b.Publish(e) }); n != 0 {
		t.Fatalf("Publish allocates %v allocs/op with a subscriber, want 0", n)
	}
}

// failingWriter fails every write after the first n bytes.
type failingWriter struct {
	n   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, w.err
}

// TestStreamSinkJSONLWriteError: a failing writer must surface through
// Err/Flush, and the sink must stop counting events after the failure.
func TestStreamSinkJSONLWriteError(t *testing.T) {
	boom := errors.New("disk full")
	sink, err := NewStreamSink(&failingWriter{n: 8, err: boom}, JSONL)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	// The bufio layer defers the failure until its buffer fills or Flush
	// runs; either way the error must latch and be reported.
	for i := 0; i < 10000; i++ {
		sink.OnEvent(busEvent(time.Duration(i)))
	}
	if err := sink.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want wrapped %v", err, boom)
	}
	if !errors.Is(sink.Err(), boom) {
		t.Fatalf("Err = %v, want wrapped %v", sink.Err(), boom)
	}
	if sink.Events() >= 10000 {
		t.Fatalf("sink counted all %d events despite write failure", sink.Events())
	}
}

// TestStreamSinkCSVWriteError: same contract for the CSV encoding.
func TestStreamSinkCSVWriteError(t *testing.T) {
	boom := errors.New("pipe closed")
	sink, err := NewStreamSink(&failingWriter{n: 64, err: boom}, CSV)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	for i := 0; i < 10000; i++ {
		sink.OnEvent(busEvent(time.Duration(i)))
	}
	if err := sink.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want wrapped %v", err, boom)
	}
}

// TestStreamSinkCSVHeaderError: a writer that fails immediately breaks CSV
// construction (the header write) — csv.Writer buffers, so the failure
// must at latest surface on Flush.
func TestStreamSinkCSVHeaderError(t *testing.T) {
	boom := errors.New("readonly fs")
	sink, err := NewStreamSink(&failingWriter{n: 0, err: boom}, CSV)
	if err != nil {
		if !errors.Is(err, boom) {
			t.Fatalf("NewStreamSink = %v, want wrapped %v", err, boom)
		}
		return
	}
	if err := sink.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want wrapped %v", err, boom)
	}
}
