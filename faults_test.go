package satin

// Tests for the fault-injection layer as seen through the facade: an empty
// plan must leave the golden scenario byte-identical (zero overhead when
// disabled), a fixed non-empty plan must reproduce its own checked-in
// golden trace, and faulted runs must stay worker-count invariant.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// faultedGolden is the fixed plan behind testdata/
// trace_faulted_seed1.jsonl.golden: every fault kind fires, including a
// hotplug window that forces SATIN to re-route core 1's introspection slot.
const faultedGolden = "jitter:0.05;dvfs:at=5s,factor=0.8;hotplug:core=1,off=2s,on=12s;" +
	"irq:p=0.05,delay=100us;switch:p=0.1,spike=1ms"

// TestFaultPlanEmptyGoldenIdentity is the zero-overhead acceptance check: a
// scenario whose fault plan is empty must reproduce the unfaulted goldens
// byte for byte — the injector installs nothing, draws nothing, and
// schedules nothing. "scale:0" canonicalizes to no plan at all; an IRQ
// delay that never fires stays in the canonical string but is still empty.
func TestFaultPlanEmptyGoldenIdentity(t *testing.T) {
	for _, plan := range []string{"scale:0", "irq:delay=100us"} {
		t.Run(plan, func(t *testing.T) { emptyPlanMatchesGoldens(t, plan) })
	}
}

// emptyPlanMatchesGoldens runs the golden scenario under an empty plan.
func emptyPlanMatchesGoldens(t *testing.T, plan string) {
	sc := goldenScenario(t, withFaults(plan))
	if sc.Faults() != nil {
		t.Fatal("empty fault plan installed an injector")
	}
	var trace bytes.Buffer
	sink, err := NewStreamSink(&trace, ExportJSONL)
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
	for _, tc := range []struct {
		got  []byte
		file string
	}{
		{timeline.Bytes(), "timeline_seed1.golden"},
		{trace.Bytes(), "trace_seed1.jsonl.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatalf("reading golden: %v", err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("empty fault plan drifted from %s", tc.file)
		}
	}
}

// TestFaultedTraceGolden locks the faulted scenario's streamed JSONL against
// its checked-in golden, mirroring testdata/trace_seed1.* for the unfaulted
// run. Any drift in fault scheduling, RNG stream layout, or re-route
// ordering shows up here.
func TestFaultedTraceGolden(t *testing.T) {
	sc := goldenScenario(t, withFaults(faultedGolden))
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
	inj := sc.Faults()
	if inj == nil {
		t.Fatal("non-empty fault plan installed no injector")
	}
	if inj.Injected() == 0 {
		t.Error("faulted golden run injected no faults")
	}
	if sc.SATIN().ReroutedRounds() == 0 {
		t.Error("hotplug window produced no re-routed rounds")
	}
	if got, want := len(sc.SATIN().Rounds()), 19; got != want {
		t.Errorf("faulted run completed %d rounds, want the full budget %d", got, want)
	}
	if !strings.Contains(out.String(), `"fault"`) {
		t.Error("faulted trace contains no fault events")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_faulted_seed1.jsonl.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("faulted export drifted from golden\n--- got ---\n%s", out.String())
	}
}

// TestDeterminismFaultedAcrossWorkers extends the worker-count invariance
// check to faulted runs: with a fixed seed and plan, the streamed JSONL and
// metrics snapshot must be byte-identical on one worker and on eight.
func TestDeterminismFaultedAcrossWorkers(t *testing.T) {
	run := func(workers int) (traces, metrics []string) {
		t.Helper()
		const seeds = 4
		traces = make([]string, seeds)
		metrics = make([]string, seeds)
		_, err := RunSeeds("fault-determinism", 1, seeds, workers,
			func(seed uint64) (SweepMetrics, error) {
				s := goldenSpec(seed)
				s.Faults = faultedGolden
				sc, err := FromSpec(s)
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
				return SweepMetrics{}.Add("injected", float64(sc.Faults().Injected())), nil
			})
		if err != nil {
			t.Fatalf("RunSeeds(workers=%d): %v", workers, err)
		}
		return traces, metrics
	}
	traces1, metrics1 := run(1)
	traces8, metrics8 := run(8)
	for i := range traces1 {
		if traces1[i] == "" {
			t.Fatalf("seed %d produced an empty trace", i+1)
		}
		if traces1[i] != traces8[i] {
			t.Errorf("seed %d: faulted JSONL differs between workers=1 and workers=8", i+1)
		}
		if metrics1[i] != metrics8[i] {
			t.Errorf("seed %d: faulted metrics differ between workers=1 and workers=8", i+1)
		}
	}
}

// TestFaultMetricsRegistered checks the faulted run surfaces its injection
// counters through the metrics registry.
func TestFaultMetricsRegistered(t *testing.T) {
	sc := goldenScenario(t, withFaults(faultedGolden))
	sc.RunToCompletion()
	snap := sc.Metrics()
	total, ok := snap.Get("fault.injected")
	if !ok || total.Value != int64(sc.Faults().Injected()) {
		t.Errorf("fault.injected = %d (present=%v), want %d", total.Value, ok, sc.Faults().Injected())
	}
	reroutes, ok := snap.Get("satin.rerouted_rounds")
	if !ok || reroutes.Value != int64(sc.SATIN().ReroutedRounds()) {
		t.Errorf("satin.rerouted_rounds = %d (present=%v), want %d", reroutes.Value, ok, sc.SATIN().ReroutedRounds())
	}
	if hp, ok := snap.Get("fault.hotplug_transitions"); !ok || hp.Value != 2 {
		t.Errorf("fault.hotplug_transitions = %d (present=%v), want 2", hp.Value, ok)
	}
}

// TestFaultPlanRejected checks facade-level validation: a malformed plan
// fails scenario construction instead of corrupting the run.
func TestFaultPlanRejected(t *testing.T) {
	bad := goldenSpec(1)
	bad.Faults = "dvfs:at=0s,factor=0.5,core=99"
	if _, err := FromSpec(bad); err == nil {
		t.Error("out-of-range DVFS core accepted")
	}
	if _, err := ParseFaultPlan("scale:nope"); err == nil {
		t.Error("malformed scale magnitude accepted")
	}
}
