package telemetry

import (
	"io"
	"time"

	"satin/internal/profile"
)

// timeline.go renders wall-clock spans as a Chrome trace_event document
// through profile.ChromeWriter, the writer the virtual-time profiler uses,
// so both pass the same profile.ValidateChromeTrace (`satin-sim
// -lint-chrome`). Where internal/profile plots virtual time inside one
// simulated universe, this plots real seconds across a distributed
// campaign: the coordinator maps jobs, shards, leases, cells, and merges
// onto processes and tracks.
//
// Mapping:
//
//   - pid = one per distinct Span.Process, in first-appearance order
//   - tid = one per distinct Span.Thread inside a process, ditto
//   - "X" events = spans (ts/dur in microseconds of wall-clock time,
//     relative to the caller's chosen zero)
//   - "M" events = process_name / thread_name metadata

// Span is one wall-clock interval on a named track.
type Span struct {
	// Process and Thread name the track. All spans sharing a Process share
	// a trace pid; all sharing (Process, Thread) share a tid.
	Process string
	Thread  string
	// Name is the span label; Detail an optional annotation.
	Name   string
	Detail string
	// Begin and End are offsets from the timeline zero. Spans on one
	// (Process, Thread) track must nest (overlap only by containment) —
	// that is the validator's invariant, and the caller's layout duty.
	Begin, End time.Duration
	// Open marks a span still running at export time; its End is the
	// caller's clamp instant and the event is annotated "clamped".
	Open bool
}

// WriteChromeTrace writes the spans as trace_event JSON. Track ids are
// assigned by first appearance, so the output is a pure function of the
// span slice. A negative Begin is written as 0, and an End before its
// Begin as the Begin.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	cw := profile.NewChromeWriter(w)

	// Assign pids/tids by first appearance and emit the metadata up front.
	pidOf := map[string]int{}
	type track struct{ process, thread string }
	tidOf := map[track]int{}
	tidNext := map[string]int{}
	for _, sp := range spans {
		if _, ok := pidOf[sp.Process]; !ok {
			pidOf[sp.Process] = len(pidOf)
			cw.ProcessName(pidOf[sp.Process], sp.Process)
		}
		tk := track{sp.Process, sp.Thread}
		if _, ok := tidOf[tk]; !ok {
			tidOf[tk] = tidNext[sp.Process]
			tidNext[sp.Process]++
			cw.ThreadName(pidOf[sp.Process], tidOf[tk], sp.Thread)
		}
	}

	for _, sp := range spans {
		begin, end := sp.Begin, sp.End
		if begin < 0 {
			begin = 0
		}
		if end < begin {
			end = begin
		}
		cw.Complete(sp.Name, "wall", begin, end-begin,
			pidOf[sp.Process], tidOf[track{sp.Process, sp.Thread}],
			profile.ChromeArgs{Detail: sp.Detail, Clamped: sp.Open})
	}
	return cw.Close()
}
