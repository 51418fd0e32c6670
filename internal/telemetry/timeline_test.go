package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"satin/internal/profile"
)

func sampleSpans() []Span {
	return []Span{
		{Process: "campaign c1", Thread: "job", Name: "job c1", Begin: 0, End: 100 * time.Millisecond},
		{Process: "campaign c1", Thread: "shard 0", Name: "lease #1", Detail: "worker w1", Begin: 5 * time.Millisecond, End: 60 * time.Millisecond},
		{Process: "campaign c1", Thread: "shard 0", Name: "cell 0", Begin: 6 * time.Millisecond, End: 30 * time.Millisecond},
		{Process: "campaign c1", Thread: "shard 0", Name: "cell 1", Begin: 30 * time.Millisecond, End: 59 * time.Millisecond},
		{Process: "campaign c1", Thread: "merge", Name: "merge", Begin: 90 * time.Millisecond, End: 100 * time.Millisecond},
	}
}

// TestWriteChromeTracePassesLint: the wall-clock exporter's output must
// satisfy the same structural validator as the virtual-time profiler
// (the -lint-chrome machinery) — valid JSON, metadata before events,
// nested spans per track.
func TestWriteChromeTracePassesLint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if n, err := profile.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("trace fails -lint-chrome validation: %v\n%s", err, buf.String())
	} else if n == 0 {
		t.Fatal("validator saw zero events")
	}
}

// TestWriteChromeTraceContent: track assignment, args, and clamping.
func TestWriteChromeTraceContent(t *testing.T) {
	spans := sampleSpans()
	spans = append(spans, Span{
		Process: "campaign c1", Thread: "shard 1", Name: "lease #1",
		Begin: -5 * time.Millisecond, End: 2 * time.Millisecond, Open: true,
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var metas, events int
	threadTids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name == "thread_name" {
				var args struct {
					Name string `json:"name"`
				}
				if err := json.Unmarshal(ev.Args, &args); err != nil {
					t.Fatal(err)
				}
				threadTids[args.Name] = ev.Tid
			}
		case "X":
			events++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// 1 process + 4 threads (job, shard 0, merge, shard 1).
	if metas != 5 {
		t.Fatalf("meta events = %d, want 5", metas)
	}
	if events != len(spans) {
		t.Fatalf("X events = %d, want %d", events, len(spans))
	}
	// tids assigned in first-appearance order within the process.
	want := map[string]int{"job": 0, "shard 0": 1, "merge": 2, "shard 1": 3}
	for name, tid := range want {
		if threadTids[name] != tid {
			t.Fatalf("thread %q tid = %d, want %d (%v)", name, threadTids[name], tid, threadTids)
		}
	}
	// Negative begin clamps to 0; Open span is annotated.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Tid == want["shard 1"] {
			if ev.Ts != 0 {
				t.Fatalf("clamped span ts = %v, want 0", ev.Ts)
			}
			if !strings.Contains(string(ev.Args), `"clamped":true`) {
				t.Fatalf("open span missing clamped arg: %s", ev.Args)
			}
		}
	}
	// Detail annotation survives.
	if !strings.Contains(buf.String(), `"detail":"worker w1"`) {
		t.Fatalf("missing detail arg:\n%s", buf.String())
	}
}

// TestWriteChromeTraceDeterministic: identical span lists produce
// byte-identical files.
func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same spans differ")
	}
}

// TestWriteChromeTraceEmpty: an empty span list is still a valid trace.
func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, buf.String())
	}
}

// TestWriteChromeTraceBytes pins the exporter's bytes on six spans that
// cover its clamps (a negative begin, an end before its begin), two open
// spans, two processes, and characters JSON escapes.
func TestWriteChromeTraceBytes(t *testing.T) {
	spans := []Span{
		{Process: "campaign c1", Thread: "job", Name: "job c1", Begin: 0, End: 100*time.Millisecond + 1234},
		{Process: "campaign c1", Thread: "shard 0", Name: "lease #1", Detail: `worker "w1" <pid 7> & co`,
			Begin: -5 * time.Millisecond, End: 60 * time.Millisecond, Open: true},
		{Process: "campaign c1", Thread: "shard 0", Name: "cell\t0\n", Begin: 6 * time.Millisecond, End: 2 * time.Millisecond},
		{Process: `campaign "c2"`, Thread: `shard\1`, Name: "cell 1", Begin: 30*time.Millisecond + 1, End: 59 * time.Millisecond, Open: true},
		{Process: "campaign c1", Thread: "merge", Name: "merge", Detail: "ok", Begin: 90 * time.Millisecond, End: 100 * time.Millisecond},
		{Process: `campaign "c2"`, Thread: "job", Name: "job c2 \u2028\u2713", Begin: time.Second, End: time.Second + 999},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != timelineGolden {
		t.Errorf("timeline bytes changed:\n got: %s\nwant: %s", got, timelineGolden)
	}
}

const timelineGolden = `{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"campaign c1"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"job"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"shard 0"}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"campaign \"c2\""}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"shard\\1"}},
{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"merge"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"job"}},
{"name":"job c1","cat":"wall","ph":"X","ts":0.000,"dur":100001.234,"pid":0,"tid":0,"args":{}},
{"name":"lease #1","cat":"wall","ph":"X","ts":0.000,"dur":60000.000,"pid":0,"tid":1,"args":{"detail":"worker \"w1\" \u003cpid 7\u003e \u0026 co","clamped":true}},
{"name":"cell\t0\n","cat":"wall","ph":"X","ts":6000.000,"dur":0.000,"pid":0,"tid":1,"args":{}},
{"name":"cell 1","cat":"wall","ph":"X","ts":30000.001,"dur":28999.999,"pid":1,"tid":0,"args":{"clamped":true}},
{"name":"merge","cat":"wall","ph":"X","ts":90000.000,"dur":10000.000,"pid":0,"tid":2,"args":{"detail":"ok"}},
{"name":"job c2 \u2028✓","cat":"wall","ph":"X","ts":1000000.000,"dur":0.999,"pid":1,"tid":1,"args":{}}
],"displayTimeUnit":"ms"}
`
