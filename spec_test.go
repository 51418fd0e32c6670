package satin

// Tests for the spec path: FromSpec builds every Scenario, so each field of
// a spec must reach the scenario it describes, and the sweep trial must
// report exactly what the scenario did.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"satin/internal/mem"
	"satin/internal/trustzone"
)

// specScenario loads a committed corpus spec and builds its scenario.
func specScenario(t *testing.T, file string) (*Scenario, ScenarioSpec) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "specs", file))
	if err != nil {
		t.Fatalf("reading spec: %v", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", file, err)
	}
	sc, err := FromSpec(s)
	if err != nil {
		t.Fatalf("FromSpec(%s): %v", file, err)
	}
	return sc, s
}

// runScenario drives sc and returns its streamed JSONL trace, timeline
// text, and formatted report.
func runScenario(t *testing.T, sc *Scenario, drive func(*Scenario)) (trace, timeline, report string) {
	t.Helper()
	var out bytes.Buffer
	sink, err := NewStreamSink(&out, ExportJSONL)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	sc.Bus().Subscribe(sink.OnEvent)
	drive(sc)
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var tl bytes.Buffer
	if err := sc.Timeline().WriteText(&tl); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	rep := sc.Report()
	return out.String(), tl.String(), fmt.Sprintf("%+v", rep)
}

// TestFromSpecReadsEveryField builds each scenario twice, without and with
// one spec field, and asserts the effect the field must have. newScenario is
// the only code that reads a spec, and the corpus goldens exercise few of its
// fields, so a field it dropped would show here and nowhere else.
func TestFromSpecReadsEveryField(t *testing.T) {
	gettid := mem.JunoKernelLayout().SyscallEntryAddr(mem.GettidNR)
	next := gettid + mem.SyscallEntrySize // the following syscall-table entry
	baseline := func(s *ScenarioSpec) {
		s.Defense = SpecDefense{Kind: "baseline", Baseline: &SpecBaselineConfig{Period: SpecDuration(time.Second), MaxRounds: 4}}
	}
	thread := func(s *ScenarioSpec) {
		s.Evader.Kind = "thread"
		s.Run = SpecRun{For: SpecDuration(3 * time.Second)}
	}
	noEvader := func(s *ScenarioSpec) { s.Evader = SpecEvader{} }
	built := func(*Scenario) any { return "built" }
	kinds := func(sc *Scenario) any { return []bool{sc.SATIN() != nil, sc.Baseline() != nil} }
	attackers := func(sc *Scenario) any {
		return []bool{sc.Rootkit() != nil, sc.FastEvader() != nil, sc.ThreadEvader() != nil}
	}
	snapshots := func(sc *Scenario) any {
		row, _ := sc.Metrics().Get("introspect.snapshot_copies")
		return row.Value > 0
	}
	suspects := func(sc *Scenario) any { return sc.Report().Suspects > 0 }
	baselineCores := func(sc *Scenario) any {
		cores := map[int]bool{}
		for _, o := range sc.Baseline().Outcomes() {
			cores[o.CoreID] = true
		}
		return cores
	}
	f := false
	two := 2
	for _, tc := range []struct {
		field     string
		base, mut func(*ScenarioSpec) // base shapes both builds, mut the second
		effect    func(*Scenario) any // observed after DriveSpec; must differ
		without   any                 // the effect without the field; nil accepts any
		with      any                 // the effect with it; nil accepts any
	}{
		// With SATIN's own seed pinned, the round sums still differ: the
		// root seed fills the kernel bytes they hash.
		{"seed", func(s *ScenarioSpec) { s.Defense.SATIN.Seed = 3 }, func(s *ScenarioSpec) { s.Seed = 2 },
			func(sc *Scenario) any {
				var sums []uint64
				for _, r := range sc.SATIN().Rounds() {
					sums = append(sums, r.Sum)
				}
				return sums
			}, nil, nil},
		{"defense.kind none", nil, func(s *ScenarioSpec) {
			s.Defense = SpecDefense{Kind: "none"}
			s.Run = SpecRun{For: SpecDuration(6 * time.Second)}
		}, kinds, []bool{true, false}, []bool{false, false}},
		{"defense.kind baseline", nil, baseline, kinds, []bool{true, false}, []bool{false, true}},
		{"defense.satin.tgoal", nil, func(s *ScenarioSpec) { s.Defense.SATIN.Tgoal = SpecDuration(38 * time.Second) },
			func(sc *Scenario) any { return sc.SATIN().BasePeriod() }, time.Second, 2 * time.Second},
		{"defense.satin.technique", nil, func(s *ScenarioSpec) { s.Defense.SATIN.Technique = "snapshot" },
			snapshots, false, true},
		{"defense.satin.random_deviation", nil, func(s *ScenarioSpec) { s.Defense.SATIN.RandomDeviation = &f },
			func(sc *Scenario) any {
				// Undeviated wake-ups fall on whole multiples of tp; each
				// round starts one world switch later.
				for _, r := range sc.SATIN().Rounds() {
					if r.Started.Duration()%sc.SATIN().BasePeriod() > 10*time.Millisecond {
						return false
					}
				}
				return true
			}, false, true},
		{"defense.satin.fixed_core", nil, func(s *ScenarioSpec) { s.Defense.SATIN.FixedCore = &two },
			func(sc *Scenario) any {
				for _, r := range sc.SATIN().Rounds() {
					if r.CoreID != two {
						return false
					}
				}
				return true
			}, false, true},
		{"defense.satin.max_rounds", nil, func(s *ScenarioSpec) { s.Defense.SATIN.MaxRounds = 3 },
			func(sc *Scenario) any { return len(sc.SATIN().Rounds()) }, 6, 3},
		{"defense.satin.area_bound", nil, func(s *ScenarioSpec) { s.Defense.SATIN.AreaBound = 1000 },
			built, "built", "error"},
		{"defense.satin.allow_unsafe_areas", func(s *ScenarioSpec) { s.Defense.SATIN.AreaBound = 1000 },
			func(s *ScenarioSpec) { s.Defense.SATIN.AllowUnsafeAreas = true }, built, "error", "built"},
		{"defense.satin.seed", nil, func(s *ScenarioSpec) { s.Defense.SATIN.Seed = 4 },
			func(sc *Scenario) any { return sc.SATIN().Rounds() }, nil, nil},
		{"defense.baseline.period", baseline, func(s *ScenarioSpec) { s.Defense.Baseline.Period = SpecDuration(2 * time.Second) },
			func(sc *Scenario) any { return sc.Baseline().Outcomes()[0].Started.Duration().Truncate(time.Second) },
			time.Second, 2 * time.Second},
		{"defense.baseline.randomize_period", baseline, func(s *ScenarioSpec) { s.Defense.Baseline.RandomizePeriod = true },
			func(sc *Scenario) any {
				// Each round starts one period, plus a world switch, after
				// the one before it ends.
				var prev time.Duration
				for _, o := range sc.Baseline().Outcomes() {
					if gap := o.Started.Duration() - prev; gap < time.Second || gap > time.Second+10*time.Millisecond {
						return false
					}
					prev = o.Finished.Duration()
				}
				return true
			}, true, false},
		{"defense.baseline.selection", baseline, func(s *ScenarioSpec) { s.Defense.Baseline.Selection = "fixed" },
			baselineCores, nil, map[int]bool{0: true}},
		{"defense.baseline.core", func(s *ScenarioSpec) { baseline(s); s.Defense.Baseline.Selection = "fixed" },
			func(s *ScenarioSpec) { s.Defense.Baseline.Core = 4 }, baselineCores, map[int]bool{0: true}, map[int]bool{4: true}},
		{"defense.baseline.technique", baseline, func(s *ScenarioSpec) { s.Defense.Baseline.Technique = "snapshot" },
			snapshots, false, true},
		{"defense.baseline.max_rounds", baseline, func(s *ScenarioSpec) { s.Defense.Baseline.MaxRounds = 2 },
			func(sc *Scenario) any { return len(sc.Baseline().Outcomes()) }, 4, 2},
		{"evader.kind none", nil, noEvader, attackers, []bool{true, true, false}, []bool{false, false, false}},
		{"evader.kind thread", nil, thread, attackers, []bool{true, true, false}, []bool{true, false, true}},
		{"evader.sleep fast", nil, func(s *ScenarioSpec) { s.Evader.Sleep = SpecDuration(time.Millisecond) },
			func(sc *Scenario) any { return sc.FastEvader().Events() }, nil, nil},
		{"evader.sleep thread", thread, func(s *ScenarioSpec) { s.Evader.Sleep = SpecDuration(time.Millisecond) },
			func(sc *Scenario) any { return sc.ThreadEvader().Events() }, nil, nil},
		{"evader.threshold fast", nil, func(s *ScenarioSpec) { s.Evader.Threshold = SpecDuration(10 * time.Second) },
			suspects, true, false},
		{"evader.threshold thread", thread, func(s *ScenarioSpec) { s.Evader.Threshold = SpecDuration(10 * time.Second) },
			suspects, true, false},
		{"evader.rootkit_addr", nil, func(s *ScenarioSpec) { s.Evader.RootkitAddr = &next },
			func(sc *Scenario) any { return sc.Rootkit().TargetAddr() }, gettid, next},
		{"guard on", noEvader, func(s *ScenarioSpec) { s.Guard = "on" },
			func(sc *Scenario) any { return sc.Guard() != nil && sc.Guard().Installed() }, false, true},
		{"guard on against an evader", nil, func(s *ScenarioSpec) { s.Guard = "on" }, built, "built", "error"},
		{"guard bypassed", func(s *ScenarioSpec) { s.Defense.SATIN.MaxRounds = 19 }, func(s *ScenarioSpec) { s.Guard = "bypassed" },
			func(sc *Scenario) any {
				areas := map[int]bool{}
				for _, a := range sc.SATIN().Alarms() {
					areas[a.Area] = true
				}
				return areas
			}, map[int]bool{14: true}, map[int]bool{14: true, 17: true}},
		{"routing", nil, func(s *ScenarioSpec) { s.Routing = "preemptive" },
			func(sc *Scenario) any { return sc.Monitor().Routing() }, trustzone.NonPreemptive, trustzone.Preemptive},
		{"workload.flood_rate", nil, func(s *ScenarioSpec) {
			s.Workload = &SpecWorkload{FloodRate: 1000}
			s.Run = SpecRun{For: SpecDuration(3 * time.Second)}
		}, func(sc *Scenario) any { return sc.Flood() != nil && sc.Flood().Raised() > 0 }, false, true},
		{"faults", nil, withFaults("scale:1"),
			func(sc *Scenario) any { return sc.Faults() != nil && sc.Faults().Injected() > 0 }, false, true},
		{"observability", nil, observabilityOff,
			func(sc *Scenario) any { return []bool{sc.Bus() != nil, len(sc.Metrics().Rows) > 0} },
			[]bool{true, true}, []bool{false, false}},
		{"hash_cache", nil, hashCacheOff,
			func(sc *Scenario) any { return sc.Checker().HashCacheEnabled() }, true, false},
		{"profiling", nil, profilingOn,
			func(sc *Scenario) any { return sc.Profiler() != nil }, false, true},
		{"export.chrome_trace", nil, func(s *ScenarioSpec) { s.Export = &SpecExport{ChromeTrace: "spans.json"} },
			func(sc *Scenario) any { return sc.Profiler() != nil }, false, true},
	} {
		t.Run(tc.field, func(t *testing.T) {
			observe := func(s ScenarioSpec) string {
				sc, err := FromSpec(s)
				if err != nil {
					t.Logf("build: %v", err)
					return "error"
				}
				DriveSpec(sc, s)
				return fmt.Sprint(tc.effect(sc))
			}
			// Six rounds of one full scan at tp = 1 s against the fast
			// evader, SATIN's seed derived from the root.
			s := ScenarioSpec{
				Version: ScenarioSpecVersion,
				Seed:    1,
				Defense: SpecDefense{Kind: "satin", SATIN: &SpecSATINConfig{Tgoal: SpecDuration(19 * time.Second), MaxRounds: 6}},
				Evader:  SpecEvader{Kind: "fast"},
				Run:     SpecRun{ToCompletion: true},
			}
			if tc.base != nil {
				tc.base(&s)
			}
			without := observe(s)
			tc.mut(&s)
			with := observe(s)
			if without == with {
				t.Errorf("the field has no effect: %s either way", without)
			}
			if want := fmt.Sprint(tc.without); tc.without != nil && without != want {
				t.Errorf("without the field: %s, want %s", without, want)
			}
			if want := fmt.Sprint(tc.with); tc.with != nil && with != want {
				t.Errorf("with the field: %s, want %s", with, want)
			}
		})
	}
}

// TestRunSpecTrialMatchesReport pins the sweep trial's metric values to the
// scenario report for the clean exemplar.
func TestRunSpecTrialMatchesReport(t *testing.T) {
	sc, s := specScenario(t, "clean.json")
	DriveSpec(sc, s)
	rep := sc.Report()
	m, err := RunSpecTrial(s)
	if err != nil {
		t.Fatalf("RunSpecTrial: %v", err)
	}
	want := map[string]float64{
		"rounds":     float64(rep.SATINRounds),
		"full scans": float64(rep.FullScans),
		"alarms":     float64(rep.Alarms),
		"detected":   boolMetric(rep.Detected),
		"suspects":   float64(rep.Suspects),
		"hides":      float64(rep.Hides),
		"reinstalls": float64(rep.Reinstalls),
	}
	if len(m) != len(want) {
		t.Fatalf("metrics = %+v, want %d named values", m, len(want))
	}
	for _, sample := range m {
		if v, ok := want[sample.Name]; !ok || v != sample.Value {
			t.Errorf("metric %q = %v, want %v (known %v)", sample.Name, sample.Value, v, ok)
		}
	}
}

// TestInstantiateSpecSweep checks the template-seed contract end to end:
// instantiating the clean template at the golden seed reproduces the golden
// run, and a different seed diverges (the derived defense seed follows).
func TestInstantiateSpecSweep(t *testing.T) {
	_, tmpl := specScenario(t, "clean.json")
	base, err := RunSpecTrial(InstantiateSpec(tmpl, 1))
	if err != nil {
		t.Fatalf("RunSpecTrial(seed 1): %v", err)
	}
	again, err := RunSpecTrial(InstantiateSpec(tmpl, 1))
	if err != nil {
		t.Fatalf("RunSpecTrial(seed 1, rerun): %v", err)
	}
	if fmt.Sprintf("%v", base) != fmt.Sprintf("%v", again) {
		t.Errorf("same seed, different metrics: %v vs %v", base, again)
	}
	// A different seed must reach the run: its full trace diverges from the
	// golden seed's (metrics alone can coincide).
	traceAt := func(seed uint64) string {
		inst := InstantiateSpec(tmpl, seed)
		sc, err := FromSpec(inst)
		if err != nil {
			t.Fatalf("FromSpec(seed %d): %v", seed, err)
		}
		trace, _, _ := runScenario(t, sc, func(sc *Scenario) { DriveSpec(sc, inst) })
		return trace
	}
	if traceAt(1) == traceAt(2) {
		t.Error("seeds 1 and 2 produced identical traces — seed substitution is not reaching the run")
	}
}
