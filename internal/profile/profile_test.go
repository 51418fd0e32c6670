package profile

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"satin/internal/trace"
)

const (
	ms = time.Millisecond
	us = time.Microsecond
)

// TestSpanCausality builds the canonical secure-excursion shape by hand and
// checks the parent links and the area-inheritance rule for chunks.
func TestSpanCausality(t *testing.T) {
	p := NewProfiler(2)
	p.Begin(SpanWorldSwitch, 0, -1, 10*ms, "secure-timer")
	p.Begin(SpanSecureDispatch, 0, -1, 10*ms, "")
	p.End(SpanSecureDispatch, 0, 10*ms+3*us)
	p.Begin(SpanRound, 0, 14, 10*ms+3*us, "")
	p.Complete(SpanHashChunk, 0, -1, 10*ms+3*us, 10*ms+5*us)
	p.Complete(SpanHashChunk, 0, -1, 10*ms+5*us, 10*ms+7*us)
	p.End(SpanRound, 0, 11*ms)
	p.End(SpanWorldSwitch, 0, 11*ms+2*us)

	spans := p.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	ws, disp, round := spans[0], spans[1], spans[2]
	if ws.Parent != -1 {
		t.Errorf("world switch parent = %d, want -1 (root)", ws.Parent)
	}
	if disp.Parent != ws.ID {
		t.Errorf("dispatch parent = %d, want %d (world switch)", disp.Parent, ws.ID)
	}
	if round.Parent != ws.ID {
		t.Errorf("round parent = %d, want %d (world switch; dispatch already closed)", round.Parent, ws.ID)
	}
	for _, chunk := range spans[3:] {
		if chunk.Parent != round.ID {
			t.Errorf("chunk %d parent = %d, want %d (round)", chunk.ID, chunk.Parent, round.ID)
		}
		if chunk.Area != 14 {
			t.Errorf("chunk %d area = %d, want 14 inherited from round", chunk.ID, chunk.Area)
		}
	}
	if ws.End != 11*ms+2*us {
		t.Errorf("world switch end = %v, want %v", ws.End, 11*ms+2*us)
	}
}

// TestEvaderSharedTrack: evader spans nest on the one evader track even when
// the thread-level evader's hide and reinstall run on different cores.
func TestEvaderSharedTrack(t *testing.T) {
	p := NewProfiler(6)
	p.Begin(SpanEvaderWindow, 2, -1, 5*ms, "")
	p.Begin(SpanEvaderHide, 2, -1, 5*ms, "")
	p.End(SpanEvaderHide, 2, 8*ms)
	p.Begin(SpanEvaderReinstall, 4, -1, 9*ms, "") // different core
	p.End(SpanEvaderReinstall, 4, 12*ms)
	p.End(SpanEvaderWindow, 4, 12*ms)

	spans := p.Spans()
	window := spans[0]
	if spans[1].Parent != window.ID || spans[2].Parent != window.ID {
		t.Fatalf("hide parent %d / reinstall parent %d, want both %d",
			spans[1].Parent, spans[2].Parent, window.ID)
	}
	if window.End != 12*ms {
		t.Fatalf("window end = %v, want %v", window.End, 12*ms)
	}
}

// TestEndUnmatchedIgnored: an End with no open span of that kind must not
// corrupt the stacks or close somebody else's span.
func TestEndUnmatchedIgnored(t *testing.T) {
	p := NewProfiler(1)
	p.Begin(SpanWorldSwitch, 0, -1, 1*ms, "")
	p.End(SpanRound, 0, 2*ms) // no round open
	if got := p.Spans()[0].End; got != OpenEnd {
		t.Fatalf("world switch closed by unmatched round End (end=%v)", got)
	}
	p.End(SpanWorldSwitch, 0, 3*ms)
	if got := p.Spans()[0].End; got != 3*ms {
		t.Fatalf("world switch end = %v, want %v", got, 3*ms)
	}
}

// TestSummaryResidencyPartition: Normal + Scan + Switch must equal elapsed
// exactly, including clamped still-open spans.
func TestSummaryResidencyPartition(t *testing.T) {
	p := NewProfiler(2)
	// Core 0: one clean excursion, 2ms total, 1.5ms scanning.
	p.Begin(SpanWorldSwitch, 0, -1, 10*ms, "")
	p.Begin(SpanRound, 0, 3, 10*ms+200*us, "")
	p.End(SpanRound, 0, 10*ms+1700*us)
	p.End(SpanWorldSwitch, 0, 12*ms)
	// Core 1: an excursion still open at run end — clamped to elapsed.
	p.Begin(SpanWorldSwitch, 1, -1, 19*ms, "")

	elapsed := 20 * ms
	s := p.Summary(elapsed)
	if err := s.ResidencyCheck(); err != nil {
		t.Fatal(err)
	}
	c0 := s.Cores[0]
	if c0.Scan != 1500*us || c0.Switch != 500*us || c0.Normal != 18*ms {
		t.Fatalf("core 0 residency scan=%v switch=%v normal=%v, want 1.5ms/500µs/18ms", c0.Scan, c0.Switch, c0.Normal)
	}
	c1 := s.Cores[1]
	if c1.Normal != 19*ms || c1.Switch != 1*ms {
		t.Fatalf("core 1 residency normal=%v switch=%v, want 19ms/1ms (open span clamped)", c1.Normal, c1.Switch)
	}
	if s.WorldSwitches != 2 || s.Rounds != 1 {
		t.Fatalf("counts: %d switches %d rounds, want 2/1", s.WorldSwitches, s.Rounds)
	}
}

// TestRaceMargin: the live view is min(window) - max(round).
func TestRaceMargin(t *testing.T) {
	p := NewProfiler(1)
	p.Begin(SpanRound, 0, 1, 0, "")
	p.End(SpanRound, 0, 4*ms)
	p.Begin(SpanEvaderWindow, -1, -1, 10*ms, "")
	p.End(SpanEvaderWindow, -1, 21*ms)
	p.Begin(SpanEvaderWindow, -1, -1, 30*ms, "")
	p.End(SpanEvaderWindow, -1, 39*ms)

	margin, ok := p.Summary(50 * ms).RaceMargin()
	if !ok {
		t.Fatal("race margin not observable with a round and two windows")
	}
	if want := 9*ms - 4*ms; margin != want {
		t.Fatalf("race margin = %v, want %v", margin, want)
	}
}

// TestOnEventDetectionLatency: alarm latency counts from the last instant
// the rootkit trace became present (the last reinstall, or boot).
func TestOnEventDetectionLatency(t *testing.T) {
	p := NewProfiler(1)
	p.OnEvent(trace.Event{At: 5 * time.Second, Kind: trace.KindReinstalled, Core: -1, Area: -1})
	p.OnEvent(trace.Event{At: 8 * time.Second, Kind: trace.KindAlarm, Core: -1, Area: 14})
	s := p.Summary(10 * time.Second)
	if len(s.Latencies) != 1 || s.Latencies[0] != 3*time.Second {
		t.Fatalf("latencies = %v, want [3s]", s.Latencies)
	}
	// World-enter and round instants are subsumed by spans, not recorded.
	p.OnEvent(trace.Event{At: 9 * time.Second, Kind: trace.KindWorldEnter, Core: 0, Area: -1})
	if n := len(p.Instants()); n != 2 {
		t.Fatalf("instants = %d, want 2 (world-enter skipped)", n)
	}
}

// TestMergeSeedOrder: merging is pure summation/concatenation in input
// order, so the merged render is reproducible from per-seed parts.
func TestMergeSeedOrder(t *testing.T) {
	a := Summary{Seeds: 1, Elapsed: 10 * ms,
		Cores:  []Residency{{Core: 0, Normal: 9 * ms, Scan: 1 * ms}},
		Rounds: 2, Windows: []time.Duration{11 * ms},
		MaxRound: 2 * ms, MinWindow: 11 * ms, HasWindow: true}
	b := Summary{Seeds: 1, Elapsed: 20 * ms,
		Cores:  []Residency{{Core: 0, Normal: 18 * ms, Scan: 2 * ms}},
		Rounds: 3, Windows: []time.Duration{9 * ms},
		MaxRound: 3 * ms, MinWindow: 9 * ms, HasWindow: true}
	m := Merge([]Summary{a, b})
	if m.Seeds != 2 || m.Elapsed != 30*ms || m.Rounds != 5 {
		t.Fatalf("merge totals wrong: %+v", m)
	}
	if err := m.ResidencyCheck(); err != nil {
		t.Fatal(err)
	}
	if m.MaxRound != 3*ms || m.MinWindow != 9*ms {
		t.Fatalf("merge extremes: maxRound=%v minWindow=%v", m.MaxRound, m.MinWindow)
	}
	if len(m.Windows) != 2 || m.Windows[0] != 11*ms || m.Windows[1] != 9*ms {
		t.Fatalf("window pool order not preserved: %v", m.Windows)
	}
	if Merge([]Summary{a, b}).Render() != m.Render() {
		t.Fatal("repeated merge not byte-identical")
	}
}

// TestChromeTraceRoundTrip: the exporter's output must satisfy our own
// Perfetto-shape validator (well-formed JSON, metadata, nested X events).
func TestChromeTraceRoundTrip(t *testing.T) {
	p := NewProfiler(2)
	p.Begin(SpanWorldSwitch, 0, -1, 10*ms, "secure-timer")
	p.Begin(SpanRound, 0, 14, 10*ms+3*us, "")
	p.Complete(SpanHashChunk, 0, -1, 10*ms+3*us, 10*ms+5*us)
	p.End(SpanRound, 0, 11*ms)
	p.End(SpanWorldSwitch, 0, 11*ms+2*us)
	p.Begin(SpanEvaderWindow, -1, -1, 12*ms, "")
	p.End(SpanEvaderWindow, -1, 25*ms)
	p.OnEvent(trace.Event{At: 11 * ms, Kind: trace.KindAlarm, Core: -1, Area: 14})

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf, 30*ms); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateChromeTrace rejected our own export: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("validator saw no events")
	}
	for _, want := range []string{`"Core 0"`, `"TZ-Evader"`, `"world-switch"`, `"displayTimeUnit":"ms"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestChromeTraceNilProfiler: a nil profiler still writes a valid, empty
// trace (the CLI path never special-cases).
func TestChromeTraceNilProfiler(t *testing.T) {
	var p *Profiler
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf, time.Second); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	if _, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("nil profiler's trace invalid: %v", err)
	}
}

// TestChromeTraceBytes pins the exporter's bytes on a small hand-built run:
// core spans, an evader-track span, an open span, instants with and
// without detail, and characters JSON escapes; and on a nil profiler.
func TestChromeTraceBytes(t *testing.T) {
	p := NewProfiler(2)
	p.Begin(SpanWorldSwitch, 0, -1, 10*ms, "secure-timer")
	p.Begin(SpanSecureDispatch, 0, -1, 10*ms, "")
	p.End(SpanSecureDispatch, 0, 10*ms+3*us)
	p.Begin(SpanRound, 0, 14, 10*ms+3*us, "")
	p.Complete(SpanHashChunk, 0, -1, 10*ms+3*us, 10*ms+5*us+7)
	p.End(SpanRound, 0, 11*ms)
	p.End(SpanWorldSwitch, 0, 11*ms+2*us)
	p.Begin(SpanEvaderWindow, 1, -1, 12*ms, "")
	p.Begin(SpanEvaderHide, 1, -1, 12*ms, "")
	p.End(SpanEvaderHide, 1, 13*ms+1)
	p.End(SpanEvaderWindow, 1, 25*ms)
	p.Begin(SpanWorldSwitch, 1, -1, 20*ms+1, `smc "probe"`) // still open at export
	p.OnEvent(trace.Event{At: 11 * ms, Kind: trace.KindAlarm, Core: -1, Area: 14, Detail: "area 14 <dirty>"})
	p.OnEvent(trace.Event{At: 12*ms + 500, Kind: trace.KindSuspect, Core: 1, Area: -1})

	var nilProfiler *Profiler
	for _, c := range []struct {
		name string
		p    *Profiler
		want string
	}{
		{"hand-built", p, chromeTraceGolden},
		{"nil", nilProfiler, "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\"}\n"},
	} {
		var buf bytes.Buffer
		if err := c.p.WriteChromeTrace(&buf, 30*ms); err != nil {
			t.Fatalf("%s: WriteChromeTrace: %v", c.name, err)
		}
		if got := buf.String(); got != c.want {
			t.Errorf("%s: chrome trace bytes changed:\n got: %s\nwant: %s", c.name, got, c.want)
		}
	}
}

const chromeTraceGolden = `{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"Core 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"normal"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"secure"}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"Core 1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"normal"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"secure"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"TZ-Evader"}},
{"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"evader"}},
{"name":"world-switch","cat":"span","ph":"X","ts":10000.000,"dur":1002.000,"pid":0,"tid":1,"args":{"area":-1,"detail":"secure-timer"}},
{"name":"secure-dispatch","cat":"span","ph":"X","ts":10000.000,"dur":3.000,"pid":0,"tid":1,"args":{"area":-1}},
{"name":"round","cat":"span","ph":"X","ts":10003.000,"dur":997.000,"pid":0,"tid":1,"args":{"area":14}},
{"name":"hash-chunk","cat":"span","ph":"X","ts":10003.000,"dur":2.007,"pid":0,"tid":1,"args":{"area":14}},
{"name":"evader-window","cat":"span","ph":"X","ts":12000.000,"dur":13000.000,"pid":2,"tid":0,"args":{"area":-1}},
{"name":"evader-hide","cat":"span","ph":"X","ts":12000.000,"dur":1000.001,"pid":2,"tid":0,"args":{"area":-1}},
{"name":"world-switch","cat":"span","ph":"X","ts":20000.001,"dur":9999.999,"pid":1,"tid":1,"args":{"area":-1,"detail":"smc \"probe\"","clamped":true}},
{"name":"alarm","cat":"event","ph":"i","s":"t","ts":11000.000,"pid":2,"tid":0,"args":{"area":14,"detail":"area 14 \u003cdirty\u003e"}},
{"name":"suspect","cat":"event","ph":"i","s":"t","ts":12000.500,"pid":1,"tid":0,"args":{"area":-1}}
],"displayTimeUnit":"ms"}
`

// TestValidateChromeTraceRejects: overlapping non-nested X events on one
// thread are exactly what the span model promises never to produce.
func TestValidateChromeTraceRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"overlap": `{"traceEvents":[
{"name":"a","ph":"X","ts":0,"dur":10,"pid":0,"tid":0,"cat":"span"},
{"name":"b","ph":"X","ts":5,"dur":10,"pid":0,"tid":0,"cat":"span"}]}`,
		"no-events": `{"notTraceEvents":[]}`,
		"bad-phase": `{"traceEvents":[{"name":"a","ph":"Q","pid":0,"tid":0}]}`,
	} {
		if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validator accepted malformed trace", name)
		}
	}
}

// TestNilProfilerZeroAllocs locks the detached-profiler contract: every emit
// on a nil handle is free.
func TestNilProfilerZeroAllocs(t *testing.T) {
	var p *Profiler
	e := trace.Event{At: time.Second, Kind: trace.KindAlarm, Core: -1, Area: 14}
	if n := testing.AllocsPerRun(200, func() {
		p.Begin(SpanWorldSwitch, 0, -1, 0, "")
		p.End(SpanWorldSwitch, 0, 0)
		p.Complete(SpanHashChunk, 0, -1, 0, 0)
		p.OnEvent(e)
	}); n != 0 {
		t.Fatalf("nil profiler emits allocate %v allocs/op, want 0", n)
	}
}
