package satin

// Tests for the observability layer as seen through the facade: the
// streamed timeline must reproduce the original post-hoc merge byte for
// byte, exports must be deterministic across worker counts, and the
// summary Report must agree with the component logs.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satin/internal/trustzone"
)

// goldenSpec is the exact configuration the checked-in golden timeline
// (testdata/timeline_seed1.golden) was captured from, on the
// pre-observability code, at the given root seed: one full scan at tp = 1 s
// against the fast evader, with SATIN's seed pinned to 3 (at root seed 1,
// testdata/specs/clean.json).
func goldenSpec(seed uint64) ScenarioSpec {
	return ScenarioSpec{
		Version: ScenarioSpecVersion,
		Seed:    seed,
		Defense: SpecDefense{Kind: "satin", SATIN: &SpecSATINConfig{Tgoal: SpecDuration(19 * time.Second), MaxRounds: 19, Seed: 3}},
		Evader:  SpecEvader{Kind: "fast"},
		Run:     SpecRun{ToCompletion: true},
	}
}

// goldenScenario builds goldenSpec(1) with each mutation applied in turn.
func goldenScenario(t *testing.T, muts ...func(*ScenarioSpec)) *Scenario {
	t.Helper()
	s := goldenSpec(1)
	for _, mut := range muts {
		mut(&s)
	}
	sc, err := FromSpec(s)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	return sc
}

// Spec mutations for goldenScenario.
var (
	observabilityOff = func(s *ScenarioSpec) { s.Observability = new(bool) }
	hashCacheOff     = func(s *ScenarioSpec) { s.HashCache = new(bool) }
	profilingOn      = func(s *ScenarioSpec) { on := true; s.Profiling = &on }
)

// withFaults sets the spec's fault plan.
func withFaults(plan string) func(*ScenarioSpec) {
	return func(s *ScenarioSpec) { s.Faults = plan }
}

// TestTimelineGolden locks Scenario.Timeline() output to the pre-refactor
// post-hoc merge: the golden file was generated before the timeline became
// a live bus subscription, so any byte of drift here is an ordering or
// content regression in the streaming path.
func TestTimelineGolden(t *testing.T) {
	sc := goldenScenario(t)
	sc.RunToCompletion()
	var got bytes.Buffer
	if err := sc.Timeline().WriteText(&got); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "timeline_seed1.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("timeline drifted from pre-refactor golden\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestStreamExportGolden locks the JSONL and CSV streaming exports for the
// golden scenario against checked-in files.
func TestStreamExportGolden(t *testing.T) {
	for _, tc := range []struct {
		format ExportFormat
		file   string
	}{
		{ExportJSONL, "trace_seed1.jsonl.golden"},
		{ExportCSV, "trace_seed1.csv.golden"},
	} {
		t.Run(tc.format.String(), func(t *testing.T) {
			sc := goldenScenario(t)
			var out bytes.Buffer
			sink, err := NewStreamSink(&out, tc.format)
			if err != nil {
				t.Fatalf("NewStreamSink: %v", err)
			}
			sc.Bus().Subscribe(sink.OnEvent)
			sc.RunToCompletion()
			if err := sink.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if sink.Events() == 0 {
				t.Fatal("stream sink saw no events")
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatalf("reading golden: %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%s export drifted from golden\n--- got ---\n%s", tc.format, out.String())
			}
		})
	}
}

// TestStreamJSONLRoundTrip checks the exported JSONL parses back into the
// same events the timeline recorded (in publish order).
func TestStreamJSONLRoundTrip(t *testing.T) {
	sc := goldenScenario(t)
	var out bytes.Buffer
	sink, err := NewStreamSink(&out, ExportJSONL)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	sc.Bus().Subscribe(sink.OnEvent)
	sc.RunToCompletion()
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	events, err := ReadTraceJSONL(&out)
	if err != nil {
		t.Fatalf("ReadTraceJSONL: %v", err)
	}
	if len(events) != sc.Timeline().Len() {
		t.Fatalf("round trip lost events: parsed %d, timeline has %d", len(events), sc.Timeline().Len())
	}
	for _, e := range events {
		if e.Kind == "" {
			t.Fatal("round-tripped event with empty kind")
		}
	}
}

// runSeedExports runs the golden scenario for several consecutive seeds
// under the given worker count and returns, per seed, the JSONL export and
// the rendered metrics snapshot.
func runSeedExports(t *testing.T, workers int) (traces, metrics []string) {
	t.Helper()
	const seeds = 4
	traces = make([]string, seeds)
	metrics = make([]string, seeds)
	_, err := RunSeeds("determinism", 1, seeds, workers,
		func(seed uint64) (SweepMetrics, error) {
			sc, err := FromSpec(goldenSpec(seed))
			if err != nil {
				return nil, err
			}
			var out bytes.Buffer
			sink, err := NewStreamSink(&out, ExportJSONL)
			if err != nil {
				return nil, err
			}
			sc.Bus().Subscribe(sink.OnEvent)
			sc.RunToCompletion()
			if err := sink.Flush(); err != nil {
				return nil, err
			}
			traces[seed-1] = out.String()
			metrics[seed-1] = sc.Metrics().String()
			return SweepMetrics{}.Add("alarms", float64(len(sc.SATIN().Alarms()))), nil
		})
	if err != nil {
		t.Fatalf("RunSeeds(workers=%d): %v", workers, err)
	}
	return traces, metrics
}

// TestExportDeterminismAcrossWorkers is the acceptance check: for a fixed
// seed, the streamed JSONL and the Metrics snapshot must be byte-identical
// whether trials run on one worker or eight.
func TestExportDeterminismAcrossWorkers(t *testing.T) {
	traces1, metrics1 := runSeedExports(t, 1)
	traces8, metrics8 := runSeedExports(t, 8)
	for i := range traces1 {
		if traces1[i] == "" {
			t.Fatalf("seed %d produced an empty trace", i+1)
		}
		if traces1[i] != traces8[i] {
			t.Errorf("seed %d: JSONL export differs between workers=1 and workers=8", i+1)
		}
		if metrics1[i] != metrics8[i] {
			t.Errorf("seed %d: metrics snapshot differs between workers=1 and workers=8", i+1)
		}
	}
}

// TestMetricsAgreeWithLogs cross-checks the counters against the component
// logs the metrics are supposed to mirror.
func TestMetricsAgreeWithLogs(t *testing.T) {
	sc := goldenScenario(t)
	sc.RunToCompletion()
	snap := sc.Metrics()

	rounds, ok := snap.Get("satin.rounds")
	if !ok || rounds.Value != int64(len(sc.SATIN().Rounds())) {
		t.Errorf("satin.rounds = %d (present=%v), want %d", rounds.Value, ok, len(sc.SATIN().Rounds()))
	}
	alarms, ok := snap.Get("satin.alarms")
	if !ok || alarms.Value != int64(len(sc.SATIN().Alarms())) {
		t.Errorf("satin.alarms = %d (present=%v), want %d", alarms.Value, ok, len(sc.SATIN().Alarms()))
	}
	entries, ok := snap.Get("monitor.world_entries")
	if !ok || entries.Value != int64(len(sc.Monitor().Switches())) {
		t.Errorf("monitor.world_entries = %d (present=%v), want %d", entries.Value, ok, len(sc.Monitor().Switches()))
	}
	enterHist, ok := snap.Get("monitor.switch_enter_ns")
	if !ok || enterHist.Count != int64(len(sc.Monitor().Switches())) {
		t.Errorf("monitor.switch_enter_ns count = %d (present=%v), want %d", enterHist.Count, ok, len(sc.Monitor().Switches()))
	}
	dispatched, ok := snap.Get("engine.events_dispatched")
	if !ok || dispatched.Value != int64(sc.Engine().Dispatched()) {
		t.Errorf("engine.events_dispatched = %d (present=%v), want %d", dispatched.Value, ok, sc.Engine().Dispatched())
	}
	if rep := sc.Report(); rep.Suspects == 0 {
		t.Error("Report.Suspects = 0, want the evader to have reacted")
	}
	suspects, ok := snap.Get("evader.suspects")
	if !ok || suspects.Value != int64(sc.Report().Suspects) {
		t.Errorf("evader.suspects = %d (present=%v), want %d", suspects.Value, ok, sc.Report().Suspects)
	}
}

// TestReportSummarizesRun checks Report against the accessors it abstracts.
func TestReportSummarizesRun(t *testing.T) {
	sc := goldenScenario(t)
	sc.RunToCompletion()
	r := sc.Report()
	if r.Seed != 1 {
		t.Errorf("Seed = %d, want 1", r.Seed)
	}
	if r.Elapsed != sc.Now() {
		t.Errorf("Elapsed = %v, want %v", r.Elapsed, sc.Now())
	}
	if r.SATINRounds != 19 {
		t.Errorf("SATINRounds = %d, want 19", r.SATINRounds)
	}
	if r.FullScans != sc.SATIN().FullScans() {
		t.Errorf("FullScans = %d, want %d", r.FullScans, sc.SATIN().FullScans())
	}
	if got := len(sc.SATIN().Alarms()); r.Alarms != got {
		t.Errorf("Alarms = %d, want %d", r.Alarms, got)
	}
	if r.Detected != (r.Alarms > 0) {
		t.Errorf("Detected = %v with %d alarms", r.Detected, r.Alarms)
	}
	if r.RootkitState != sc.Rootkit().State().String() {
		t.Errorf("RootkitState = %q, want %q", r.RootkitState, sc.Rootkit().State())
	}
	if len(r.Metrics.Rows) == 0 {
		t.Error("Report.Metrics is empty with observability enabled")
	}
}

// TestObservabilityDisabled checks the opt-out: no bus, empty timeline and
// metrics, but the simulation itself is unchanged.
func TestObservabilityDisabled(t *testing.T) {
	on := goldenScenario(t)
	on.RunToCompletion()
	off := goldenScenario(t, observabilityOff)
	off.RunToCompletion()

	if off.Bus() != nil {
		t.Error("Bus() != nil with observability disabled")
	}
	if n := off.Timeline().Len(); n != 0 {
		t.Errorf("Timeline has %d events with observability disabled", n)
	}
	if n := len(off.Metrics().Rows); n != 0 {
		t.Errorf("Metrics has %d rows with observability disabled", n)
	}
	// The simulation must not notice the difference.
	if got := len(on.SATIN().Rounds()); got != 19 {
		t.Errorf("rounds = %d with observability on, want 19", got)
	}
	if got, want := len(off.SATIN().Rounds()), len(on.SATIN().Rounds()); got != want {
		t.Errorf("rounds differ with observability off: %d vs %d", got, want)
	}
	if got, want := off.Engine().Dispatched(), on.Engine().Dispatched(); got != want {
		t.Errorf("dispatched events differ with observability off: %d vs %d", got, want)
	}
	ron, roff := on.Report(), off.Report()
	ron.Metrics, roff.Metrics = MetricsSnapshot{}, MetricsSnapshot{}
	if fmt.Sprintf("%+v", ron) != fmt.Sprintf("%+v", roff) {
		t.Errorf("Report differs with observability off:\non:  %+v\noff: %+v", ron, roff)
	}
}

// TestWithRoutingEquivalence: a spec that names the default routing
// explicitly must build exactly the scenario that leaves it out, and an
// unknown routing must fail construction.
func TestWithRoutingEquivalence(t *testing.T) {
	implicit := goldenScenario(t, func(s *ScenarioSpec) { s.Routing = "" })
	explicit := goldenScenario(t, func(s *ScenarioSpec) { s.Routing = "nonpreemptive" })
	if implicit.Monitor().Routing() != trustzone.NonPreemptive || explicit.Monitor().Routing() != trustzone.NonPreemptive {
		t.Fatalf("routing modes: implicit=%v explicit=%v, want both %v",
			implicit.Monitor().Routing(), explicit.Monitor().Routing(), trustzone.NonPreemptive)
	}
	implicit.RunToCompletion()
	explicit.RunToCompletion()
	var a, b bytes.Buffer
	if err := implicit.Timeline().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := explicit.Timeline().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("routing \"nonpreemptive\" changed the run vs leaving routing out")
	}
	if implicit.Metrics().String() != explicit.Metrics().String() {
		t.Error("routing \"nonpreemptive\" changed metrics vs leaving routing out")
	}

	bad := goldenSpec(1)
	bad.Routing = "bogus"
	if _, err := FromSpec(bad); err == nil {
		t.Error("FromSpec accepted an unknown routing")
	} else if !strings.Contains(err.Error(), "routing") {
		t.Errorf("unknown routing error %q does not mention routing", err)
	}
}
