package profile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// chrome.go holds the repository's one Chrome trace_event writer (the JSON
// Object Format with "traceEvents", which ui.perfetto.dev and
// chrome://tracing both load) and the validator every export is checked
// against. Two span sources write through ChromeWriter: the profiler's
// virtual-time spans (WriteChromeTrace below) and telemetry's wall-clock
// campaign timeline.

// ChromeWriter writes one trace_event document: "M" process/thread names,
// "X" complete events and "i" instants, in call order, then the closing
// frame on Close. It writes by hand (no maps, fixed field order, fixed
// 3-decimal microsecond timestamps), so a document is a pure function of
// the calls made — byte-identical across runs and platforms.
type ChromeWriter struct {
	bw      *bufio.Writer
	started bool
}

// ChromeArgs is an event's "args" object. Members are written in field
// order: "area" when HasArea, "detail" when non-empty, and "clamped":true
// for a span still open at export.
type ChromeArgs struct {
	HasArea bool
	Area    int
	Detail  string
	Clamped bool
}

// NewChromeWriter opens a trace_event document on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	return &ChromeWriter{bw: bw}
}

// ProcessName names process pid.
func (c *ChromeWriter) ProcessName(pid int, name string) {
	c.event(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, jsonString(name))
}

// ThreadName names thread tid of process pid.
func (c *ChromeWriter) ThreadName(pid, tid int, name string) {
	c.event(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`, pid, tid, jsonString(name))
}

// Complete writes an "X" event that starts at ts and lasts dur.
func (c *ChromeWriter) Complete(name, cat string, ts, dur time.Duration, pid, tid int, args ChromeArgs) {
	c.event(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{`,
		jsonString(name), jsonString(cat), usec(ts), usec(dur), pid, tid)
	c.args(args)
}

// Instant writes a thread-scoped "i" event at ts.
func (c *ChromeWriter) Instant(name, cat string, ts time.Duration, pid, tid int, args ChromeArgs) {
	c.event(`{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{`,
		jsonString(name), jsonString(cat), usec(ts), pid, tid)
	c.args(args)
}

// Close writes the closing frame and flushes the document to w.
func (c *ChromeWriter) Close() error {
	c.bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	return nil
}

// event writes an array element (or its head, which args completes),
// separated from the one before it.
func (c *ChromeWriter) event(format string, a ...any) {
	if c.started {
		c.bw.WriteString(",\n")
	}
	c.started = true
	fmt.Fprintf(c.bw, format, a...)
}

// args writes the event's args members and closes the event.
func (c *ChromeWriter) args(a ChromeArgs) {
	sep := ""
	if a.HasArea {
		fmt.Fprintf(c.bw, `"area":%d`, a.Area)
		sep = ","
	}
	if a.Detail != "" {
		c.bw.WriteString(sep + `"detail":` + jsonString(a.Detail))
		sep = ","
	}
	if a.Clamped {
		c.bw.WriteString(sep + `"clamped":true`)
	}
	c.bw.WriteString("}}")
}

// usec renders an instant or duration as trace_event microseconds with
// fixed nanosecond precision ("1947618.933").
func usec(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'f', 3, 64)
}

// jsonString quotes s as a JSON string, escaping as encoding/json does.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// The profiler's mapping onto the trace_event model:
//
//   - pid <core>      = one process per core, named "Core N"
//   - pid cores       = the evader's own process, named "TZ-Evader"
//   - tid 0 / tid 1   = the normal / secure world track inside a core
//   - "X" events      = spans (ts/dur in microseconds of virtual time)
//   - "i" events      = bus instants (alarms, suspects, faults, ...)
//   - "M" events      = process_name / thread_name metadata

const (
	tidNormal = 0
	tidSecure = 1
)

// WriteChromeTrace writes the run's spans and instants as trace_event
// JSON. Still-open spans are clamped to elapsed. Safe on a nil profiler
// (writes an empty but valid trace).
func (p *Profiler) WriteChromeTrace(w io.Writer, elapsed time.Duration) error {
	cw := NewChromeWriter(w)
	if p != nil {
		ev := p.evaderTrack()
		for c := 0; c < p.cores; c++ {
			cw.ProcessName(c, fmt.Sprintf("Core %d", c))
			cw.ThreadName(c, tidNormal, "normal")
			cw.ThreadName(c, tidSecure, "secure")
		}
		cw.ProcessName(ev, "TZ-Evader")
		cw.ThreadName(ev, tidNormal, "evader")
		for _, sp := range p.Spans() {
			pid, tid := sp.Core, tidSecure
			if p.trackFor(sp.Kind, sp.Core) == ev {
				pid, tid = ev, tidNormal
			}
			cw.Complete(sp.Kind.String(), "span", sp.Begin, sp.Duration(elapsed), pid, tid, ChromeArgs{
				HasArea: true, Area: sp.Area, Detail: sp.Detail, Clamped: sp.End == OpenEnd,
			})
		}
		for _, e := range p.instants {
			pid := e.Core
			if pid < 0 || pid >= p.cores {
				pid = ev
			}
			cw.Instant(string(e.Kind), "event", e.At, pid, tidNormal, ChromeArgs{
				HasArea: true, Area: e.Area, Detail: e.Detail,
			})
		}
	}
	return cw.Close()
}

// chromeEvent mirrors the trace_event fields ValidateChromeTrace checks.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// ValidateChromeTrace parses r as trace_event JSON and checks the
// invariants Perfetto's importer relies on: the traceEvents array exists,
// every event has a name and a known phase, "X" events carry ts/dur/pid/
// tid with non-negative values, and the complete events on each (pid, tid)
// track nest properly — a span overlaps another only by full containment.
// It returns the number of events checked.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var f chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return 0, fmt.Errorf("profile: chrome trace is not valid JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, fmt.Errorf("profile: chrome trace has no traceEvents array")
	}
	type interval struct{ begin, end float64 }
	tracks := map[[2]int][]interval{}
	var trackKeys [][2]int
	for i, e := range f.TraceEvents {
		if e.Name == "" {
			return 0, fmt.Errorf("profile: event %d has no name", i)
		}
		switch e.Ph {
		case "M":
			continue
		case "i", "I":
			if e.Ts == nil || *e.Ts < 0 {
				return 0, fmt.Errorf("profile: instant event %d (%s) lacks a non-negative ts", i, e.Name)
			}
		case "X":
			if e.Ts == nil || e.Dur == nil || e.Pid == nil || e.Tid == nil {
				return 0, fmt.Errorf("profile: complete event %d (%s) must carry ts, dur, pid, tid", i, e.Name)
			}
			if *e.Ts < 0 || *e.Dur < 0 {
				return 0, fmt.Errorf("profile: complete event %d (%s) has negative ts or dur", i, e.Name)
			}
			k := [2]int{*e.Pid, *e.Tid}
			if _, ok := tracks[k]; !ok {
				trackKeys = append(trackKeys, k)
			}
			tracks[k] = append(tracks[k], interval{*e.Ts, *e.Ts + *e.Dur})
		default:
			return 0, fmt.Errorf("profile: event %d (%s) has unsupported phase %q", i, e.Name, e.Ph)
		}
	}
	// Nesting check per track: sort by (begin asc, end desc) and run a
	// stack of enclosing intervals. eps absorbs the ns→µs float rounding.
	const eps = 0.002
	for _, k := range trackKeys {
		iv := tracks[k]
		sort.Slice(iv, func(i, j int) bool {
			if iv[i].begin != iv[j].begin {
				return iv[i].begin < iv[j].begin
			}
			return iv[i].end > iv[j].end
		})
		var stack []interval
		for _, cur := range iv {
			for len(stack) > 0 && stack[len(stack)-1].end <= cur.begin+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && cur.end > stack[len(stack)-1].end+eps {
				return 0, fmt.Errorf("profile: track pid=%d tid=%d: span [%f,%f] partially overlaps [%f,%f]",
					k[0], k[1], cur.begin, cur.end, stack[len(stack)-1].begin, stack[len(stack)-1].end)
			}
			stack = append(stack, cur)
		}
	}
	return len(f.TraceEvents), nil
}
