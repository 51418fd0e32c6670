package satin

import (
	"testing"
	"time"
)

// quickSpec is one full scan at tp = 1 s against the fast evader at the
// given root seed, with SATIN's own seed at 1.
func quickSpec(seed uint64) ScenarioSpec {
	s := goldenSpec(seed)
	s.Defense.SATIN.Seed = 1
	return s
}

// buildSpec builds the spec's scenario, failing the test on an error.
func buildSpec(t *testing.T, s ScenarioSpec) *Scenario {
	t.Helper()
	sc, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioSATINDetectsEvader(t *testing.T) {
	sc := buildSpec(t, quickSpec(11))
	sc.RunToCompletion()
	if got := len(sc.SATIN().Rounds()); got != 19 {
		t.Fatalf("rounds = %d, want 19", got)
	}
	alarms := sc.SATIN().Alarms()
	if len(alarms) != 1 || alarms[0].Area != 14 {
		t.Fatalf("alarms = %+v, want one in area 14", alarms)
	}
	if sc.Rootkit() == nil || sc.FastEvader() == nil {
		t.Error("attack accessors nil")
	}
	if sc.Now() <= 0 {
		t.Error("virtual time did not advance")
	}
}

func TestScenarioBaselineEvaded(t *testing.T) {
	s := quickSpec(12)
	s.Defense = SpecDefense{Kind: "baseline", Baseline: &SpecBaselineConfig{
		Period:          SpecDuration(2 * time.Second),
		RandomizePeriod: true,
		Selection:       "random",
		Technique:       "direct",
		MaxRounds:       3,
	}}
	sc := buildSpec(t, s)
	sc.RunToCompletion()
	outs := sc.Baseline().Outcomes()
	if len(outs) != 3 {
		t.Fatalf("baseline rounds = %d, want 3", len(outs))
	}
	for _, o := range outs {
		if !o.Clean {
			t.Error("baseline detected an evading rootkit; expected evasion")
		}
	}
}

func TestScenarioThreadEvader(t *testing.T) {
	s := quickSpec(13)
	s.Defense.SATIN.MaxRounds = 10
	s.Evader.Kind = "thread"
	s.Run = SpecRun{For: SpecDuration(25 * time.Second)}
	sc := buildSpec(t, s)
	DriveSpec(sc, s)
	if sc.ThreadEvader() == nil {
		t.Fatal("thread evader nil")
	}
	if got := len(sc.ThreadEvader().SuspectEvents()); got < 8 {
		t.Errorf("thread evader flagged %d rounds, want ≈10", got)
	}
}

// TestScenarioRunAdvancesUnboundedSATIN: with no max_rounds SATIN activates
// itself forever, so the scenario is driven in spans with Run. A booted,
// warm scenario must keep completing rounds in every later span.
func TestScenarioRunAdvancesUnboundedSATIN(t *testing.T) {
	s := goldenSpec(1)
	s.Defense.SATIN.MaxRounds = 0
	s.Evader = SpecEvader{}
	s.Observability = new(bool)
	s.Run = SpecRun{For: SpecDuration(40 * time.Second)} // two full scans
	sc := buildSpec(t, s)
	DriveSpec(sc, s)
	done := len(sc.SATIN().Rounds())
	if done == 0 {
		t.Fatal("no rounds completed during warm-up")
	}
	for span := 1; span <= 3; span++ {
		sc.Run(19 * time.Second)
		n := len(sc.SATIN().Rounds())
		if n == done {
			t.Fatalf("span %d: no rounds completed after warm-up", span)
		}
		done = n
	}
}

// TestScenarioValidation: a scenario runs either SATIN or the baseline, so
// a spec carrying both sections is refused.
func TestScenarioValidation(t *testing.T) {
	s := quickSpec(1)
	s.Defense.Baseline = &SpecBaselineConfig{}
	if _, err := FromSpec(s); err == nil {
		t.Error("SATIN+baseline accepted")
	}
}

func TestScenarioRootkitAt(t *testing.T) {
	addr := uint64(0)
	s := ScenarioSpec{
		Version: ScenarioSpecVersion,
		Seed:    14,
		Evader:  SpecEvader{Kind: "fast", RootkitAddr: &addr},
		Run:     SpecRun{For: SpecDuration(time.Second)},
	}
	if _, err := FromSpec(s); err == nil {
		t.Fatal("unmapped rootkit target accepted at start")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() []Round {
		sc := buildSpec(t, quickSpec(42))
		sc.RunToCompletion()
		return sc.SATIN().Rounds()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("round counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestScenarioTimeline(t *testing.T) {
	sc := buildSpec(t, quickSpec(31))
	sc.RunToCompletion()
	tl := sc.Timeline()
	if tl.Len() == 0 {
		t.Fatal("empty timeline")
	}
	events := tl.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("timeline out of order")
		}
	}
	// Every artifact class is represented: world entries, rounds, the
	// area-14 alarm, and evader reactions.
	kinds := map[string]int{}
	for _, e := range events {
		kinds[string(e.Kind)]++
	}
	if kinds["world-enter"] < 19 {
		t.Errorf("world-enter events = %d, want >= 19", kinds["world-enter"])
	}
	if kinds["round"] != 19 {
		t.Errorf("round events = %d, want 19", kinds["round"])
	}
	if kinds["alarm"] != 1 {
		t.Errorf("alarm events = %d, want 1", kinds["alarm"])
	}
	if kinds["suspect"] == 0 || kinds["hidden"] == 0 || kinds["reinstalled"] == 0 {
		t.Errorf("evader events missing: %v", kinds)
	}
}

func TestScenarioSyncGuardBlocksEvader(t *testing.T) {
	// Guard on, no bypass: the evader cannot install; assembling the
	// scenario surfaces the denial.
	s := ScenarioSpec{
		Version: ScenarioSpecVersion,
		Seed:    41,
		Evader:  SpecEvader{Kind: "fast"},
		Guard:   "on",
		Run:     SpecRun{For: SpecDuration(time.Second)},
	}
	if _, err := FromSpec(s); err == nil {
		t.Fatal("guarded scenario with an un-bypassed evader should fail to assemble")
	}
}

func TestScenarioSyncGuardBypassedThenCaught(t *testing.T) {
	s := quickSpec(41)
	s.Guard = "bypassed"
	sc := buildSpec(t, s)
	if sc.Guard() == nil || !sc.Guard().Installed() {
		t.Fatal("guard missing")
	}
	sc.RunToCompletion()
	// One pass flags both the rootkit (14) and the flipped PTE (17) —
	// unless the evader hid the rootkit trace in area 14's race, which it
	// cannot, and the PTE flip is never restored by the evader at all.
	areas := map[int]bool{}
	for _, a := range sc.SATIN().Alarms() {
		areas[a.Area] = true
	}
	if !areas[14] || !areas[17] {
		t.Errorf("alarm areas = %v, want 14 and 17", areas)
	}
}

func TestScenarioFloodUnderNonPreemptiveIsInert(t *testing.T) {
	s := quickSpec(43)
	s.Routing = "nonpreemptive"
	s.Workload = &SpecWorkload{FloodRate: 30000}
	// The flood never stops: bounded horizon.
	s.Run = SpecRun{For: SpecDuration(60 * time.Second)}
	sc := buildSpec(t, s)
	DriveSpec(sc, s)
	if sc.Flood() == nil || sc.Flood().Raised() == 0 {
		t.Fatal("flood not running")
	}
	alarms := sc.SATIN().Alarms()
	if len(alarms) != 1 || alarms[0].Area != 14 {
		t.Errorf("alarms = %+v; non-preemptive SATIN should shrug off the flood", alarms)
	}
	for c := 0; c < 6; c++ {
		if sc.Monitor().Preemptions(c) != 0 {
			t.Errorf("core %d preempted %d times under SCR_EL3.IRQ=0", c, sc.Monitor().Preemptions(c))
		}
	}
}
