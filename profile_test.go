package satin

// Facade-level tests for the causal span profiler: attaching it must be
// invisible to every existing output (the golden timeline and stream
// exports), while its own derived views — attribution, Chrome trace, trace
// diff — must be valid and deterministic.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestProfilerDetachedByDefault: scenarios whose spec leaves profiling off
// have a nil handle, and the nil handle is usable.
func TestProfilerDetachedByDefault(t *testing.T) {
	sc := goldenScenario(t)
	if p := sc.Profiler(); p != nil {
		t.Fatal("profiler attached without \"profiling\": true")
	}
	sc.RunToCompletion()
	if n := sc.Profiler().SpanCount(); n != 0 {
		t.Fatalf("nil profiler reports %d spans", n)
	}
}

// TestProfilingPreservesGoldens: the golden timeline must be byte-identical
// with the profiler attached — it subscribes and observes but never
// publishes or schedules.
func TestProfilingPreservesGoldens(t *testing.T) {
	sc := goldenScenario(t, profilingOn)
	var stream bytes.Buffer
	sink, err := NewStreamSink(&stream, ExportJSONL)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	sc.Bus().Subscribe(sink.OnEvent)
	sc.RunToCompletion()
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	var timeline bytes.Buffer
	if err := sc.Timeline().WriteText(&timeline); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	wantTimeline, err := os.ReadFile(filepath.Join("testdata", "timeline_seed1.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(timeline.Bytes(), wantTimeline) {
		t.Fatal("timeline drifted with profiler attached")
	}
	wantStream, err := os.ReadFile(filepath.Join("testdata", "trace_seed1.jsonl.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(stream.Bytes(), wantStream) {
		t.Fatal("JSONL stream drifted with profiler attached")
	}
}

// TestProfilerSpansAndResidency: the attached profiler records the run's
// spans and its attribution partitions elapsed time exactly.
func TestProfilerSpansAndResidency(t *testing.T) {
	sc := goldenScenario(t, profilingOn)
	sc.RunToCompletion()
	p := sc.Profiler()
	if p == nil {
		t.Fatal("\"profiling\": true left no profiler")
	}
	if p.SpanCount() == 0 {
		t.Fatal("profiler recorded no spans")
	}
	rep := sc.Report()
	sum := p.Summary(rep.Elapsed)
	if err := sum.ResidencyCheck(); err != nil {
		t.Fatal(err)
	}
	if sum.Rounds != rep.SATINRounds {
		t.Fatalf("profiler counted %d rounds, report says %d", sum.Rounds, rep.SATINRounds)
	}
	if sum.WorldSwitches == 0 || sum.Chunks == 0 {
		t.Fatalf("missing span kinds: %d switches, %d chunks", sum.WorldSwitches, sum.Chunks)
	}
	if len(sum.Windows) == 0 {
		t.Fatal("no evasion windows recorded with the fast evader active")
	}
	if _, ok := sum.RaceMargin(); !ok {
		t.Fatal("race margin not observable despite rounds and windows")
	}
	if sum.Render() != sum.Render() {
		t.Fatal("summary render not deterministic")
	}
}

// TestProfilerChromeExportValid: the facade's Chrome trace passes our
// Perfetto-shape validator.
func TestProfilerChromeExportValid(t *testing.T) {
	sc := goldenScenario(t, profilingOn)
	sc.RunToCompletion()
	var buf bytes.Buffer
	if err := sc.Profiler().WriteChromeTrace(&buf, sc.Report().Elapsed); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("chrome trace empty")
	}
}

// TestSelfDiffIdentical: two identically-seeded runs stream identical
// traces, and DiffTraces says so.
func TestSelfDiffIdentical(t *testing.T) {
	capture := func() []TimelineEvent {
		sc := goldenScenario(t)
		sc.RunToCompletion()
		return sc.Timeline().Events()
	}
	a, b := capture(), capture()
	if err := CheckTraceOrdered(a); err != nil {
		t.Fatalf("timeline out of order: %v", err)
	}
	rep := DiffTraces(a, b)
	if !rep.Identical() {
		t.Fatalf("identically-seeded runs diverge:\n%s", rep.Render(0))
	}
}

// TestDiffSeparatesSeeds: different seeds must not diff as identical — the
// tool would be useless if they did.
func TestDiffSeparatesSeeds(t *testing.T) {
	runSeed := func(seed uint64) []TimelineEvent {
		s := goldenSpec(seed)
		s.Defense.SATIN.Seed = 0 // root+2
		sc, err := FromSpec(s)
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		sc.RunToCompletion()
		return sc.Timeline().Events()
	}
	rep := DiffTraces(runSeed(1), runSeed(2))
	if rep.Identical() {
		t.Fatal("different seeds produced an identical diff")
	}
}

// TestMergeProfilesFacade: the facade merge is the internal merge.
func TestMergeProfilesFacade(t *testing.T) {
	sc := goldenScenario(t, profilingOn)
	sc.RunToCompletion()
	one := sc.Profiler().Summary(sc.Report().Elapsed)
	merged := MergeProfiles([]ProfileSummary{one, one})
	if merged.Seeds != 2 || merged.Rounds != 2*one.Rounds {
		t.Fatalf("merge of two copies: seeds=%d rounds=%d, want 2/%d", merged.Seeds, merged.Rounds, 2*one.Rounds)
	}
	if err := merged.ResidencyCheck(); err != nil {
		t.Fatal(err)
	}
}
