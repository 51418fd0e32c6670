package faultinject

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"satin/internal/simclock"
)

func TestParsePlanGrammar(t *testing.T) {
	plan, err := ParsePlan(
		"jitter:0.1; dvfs:at=10s,factor=0.5,core=2; dvfs:at=20s,factor=1.0;" +
			"hotplug:core=1,off=30s,on=200s; irq:p=0.1,delay=100us,drop=0.05,retry=50us,retries=5;" +
			"switch:p=0.2,spike=1ms")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if plan.RateJitter != 0.1 {
		t.Errorf("RateJitter = %v", plan.RateJitter)
	}
	if len(plan.DVFS) != 2 || plan.DVFS[0] != (DVFSStep{At: 10 * time.Second, Core: 2, Factor: 0.5}) ||
		plan.DVFS[1] != (DVFSStep{At: 20 * time.Second, Core: -1, Factor: 1.0}) {
		t.Errorf("DVFS = %+v", plan.DVFS)
	}
	if len(plan.Hotplug) != 2 ||
		plan.Hotplug[0] != (HotplugEvent{At: 30 * time.Second, Core: 1, Online: false}) ||
		plan.Hotplug[1] != (HotplugEvent{At: 200 * time.Second, Core: 1, Online: true}) {
		t.Errorf("Hotplug = %+v", plan.Hotplug)
	}
	if plan.IRQ.DelayProb != 0.1 || plan.IRQ.DropProb != 0.05 || plan.IRQ.MaxRetries != 5 {
		t.Errorf("IRQ = %+v", plan.IRQ)
	}
	if plan.IRQ.Delay != (simclock.Dist{Min: 50 * time.Microsecond, Avg: 100 * time.Microsecond, Max: 200 * time.Microsecond}) {
		t.Errorf("IRQ delay widened wrong: %+v", plan.IRQ.Delay)
	}
	if plan.Switch.SpikeProb != 0.2 || plan.Switch.Spike.Avg != time.Millisecond {
		t.Errorf("Switch = %+v", plan.Switch)
	}
	if err := plan.Validate(6); err != nil {
		t.Errorf("parsed plan invalid: %v", err)
	}
}

func TestParsePlanEmptyAndScale(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;"} {
		plan, err := ParsePlan(spec)
		if err != nil || !plan.Empty() {
			t.Errorf("ParsePlan(%q) = %+v, %v; want empty plan", spec, plan, err)
		}
	}
	plan, err := ParsePlan("scale:2")
	if err != nil {
		t.Fatalf("ParsePlan(scale:2): %v", err)
	}
	if want := ScaledPlan(2); plan.RateJitter != want.RateJitter ||
		plan.Switch != want.Switch || plan.IRQ != want.IRQ ||
		len(plan.DVFS) != 1 || plan.DVFS[0] != want.DVFS[0] {
		t.Errorf("scale:2 = %+v, want ScaledPlan(2) = %+v", plan, want)
	}
	// scale composes with the clause it does not set.
	plan, err = ParsePlan("scale:1;hotplug:core=0,off=5s")
	if err != nil || len(plan.Hotplug) != 1 {
		t.Errorf("scale+hotplug = %+v, %v", plan, err)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus:1",                        // unknown clause
		"jitter",                         // missing colon
		"jitter:x",                       // bad number
		"jitter:0.1;jitter:0.2",          // duplicate non-repeatable clause
		"jitter:0.1;scale:2",             // scale after a clause it would set
		"scale:2;switch:p=0.1,spike=1ms", // clause after scale set it
		"dvfs:factor=0.5",                // missing at=
		"dvfs:at=1s",                     // missing factor=
		"dvfs:at=1s,factor=0.5,x=1",      // unknown key
		"hotplug:off=1s",                 // missing core=
		"hotplug:core=0",                 // missing off=/on=
		"hotplug:core=0,off=10s,on=5s",   // on before off
		"irq:p=0.1,delay=-5us",           // non-positive duration
		"irq:p=0.1,delay",                // not key=value
		"switch:spike=abc",               // bad duration
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

// TestPlanStringRoundTrip is the serialization property behind scenario
// specs: for any plan, ParsePlan(p.String()) must reproduce p field for
// field, and String must be a fixed point (formatting is canonical).
func TestPlanStringRoundTrip(t *testing.T) {
	plans := map[string]Plan{
		"empty": {},
		"golden faulted": mustParse(t,
			"jitter:0.05;dvfs:at=5s,factor=0.8;hotplug:core=1,off=2s,on=12s;irq:p=0.05,delay=100us;switch:p=0.1,spike=1ms"),
		"all clauses": mustParse(t,
			"jitter:0.1; dvfs:at=10s,factor=0.5,core=2; dvfs:at=20s,factor=1.0;"+
				"hotplug:core=1,off=30s,on=200s; irq:p=0.1,delay=100us,drop=0.05,retry=50us,retries=5;"+
				"switch:p=0.2,spike=1ms"),
		"asymmetric dists": {
			IRQ:    IRQFaults{DelayProb: 0.25, Delay: simclock.Seconds(20e-6, 60e-6, 200e-6)},
			Switch: SwitchFaults{SpikeProb: 0.5, Spike: simclock.Dist{Min: 0, Avg: time.Millisecond, Max: 7 * time.Millisecond}},
		},
		"irq only retry": {IRQ: IRQFaults{DropProb: 0.01, RetryDelay: simclock.Exact(30 * time.Microsecond)}},
	}
	for _, mag := range []float64{0.25, 0.5, 1, 2, 4, 10} {
		plans[fmt.Sprintf("scaled %g", mag)] = ScaledPlan(mag)
	}
	for name, p := range plans {
		s := p.String()
		re, err := ParsePlan(s)
		if err != nil {
			t.Errorf("%s: ParsePlan(%q): %v", name, s, err)
			continue
		}
		if !reflect.DeepEqual(p, re) {
			t.Errorf("%s: round trip drifted:\n  plan   %+v\n  string %q\n  reparse %+v", name, p, s, re)
		}
		if again := re.String(); again != s {
			t.Errorf("%s: String not canonical: %q then %q", name, s, again)
		}
	}
	if s := (Plan{}).String(); s != "" {
		t.Errorf("empty plan renders %q, want empty string", s)
	}
}

func mustParse(t *testing.T, spec string) Plan {
	t.Helper()
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}

// TestParseDistTriple covers the explicit min/avg/max form String emits for
// distributions the single-duration shorthand cannot express.
func TestParseDistTriple(t *testing.T) {
	plan, err := ParsePlan("irq:p=0.1,delay=20µs/60µs/200µs")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	want := simclock.Dist{Min: 20 * time.Microsecond, Avg: 60 * time.Microsecond, Max: 200 * time.Microsecond}
	if plan.IRQ.Delay != want {
		t.Errorf("triple dist = %+v, want %+v", plan.IRQ.Delay, want)
	}
	for _, bad := range []string{
		"irq:p=0.1,delay=1us/2us",         // two parts
		"irq:p=0.1,delay=1us/2us/3us/4us", // four parts
		"irq:p=0.1,delay=3us/2us/1us",     // unordered
		"irq:p=0.1,delay=1us/x/3us",       // bad duration
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestDVFSFactorFloor: a DVFS factor below MinDVFSFactor is refused, from a
// dvfs clause and from the step "scale:MAG" installs (1/(1+MAG)) alike.
func TestDVFSFactorFloor(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"dvfs:at=1s,factor=1e-12", false},
		{"dvfs:at=1s,factor=0.0099", false},
		{"dvfs:at=1s,factor=0.01", true},
		{"dvfs:at=1s,factor=2", true},
		{"dvfs:at=1s,factor=0.5;dvfs:at=2s,core=3,factor=0.001", false},
		{"scale:8", true},
		{"scale:99", true},
		{"scale:100", false},
	} {
		plan, err := ParsePlan(tc.spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", tc.spec, err)
		}
		err = plan.Validate(6)
		if tc.ok && err != nil {
			t.Errorf("%q: %v", tc.spec, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "below the floor")) {
			t.Errorf("%q: error %v, want a factor below the floor", tc.spec, err)
		}
	}
}

func TestPlanValidateErrors(t *testing.T) {
	for name, plan := range map[string]Plan{
		"jitter negative":  {RateJitter: -0.1},
		"jitter one":       {RateJitter: 1},
		"dvfs negative at": {DVFS: []DVFSStep{{At: -time.Second, Factor: 0.5}}},
		"dvfs zero factor": {DVFS: []DVFSStep{{Factor: 0}}},
		"dvfs core range":  {DVFS: []DVFSStep{{Core: 6, Factor: 0.5}}},
		"hotplug core":     {Hotplug: []HotplugEvent{{Core: -1}}},
		"irq prob":         {IRQ: IRQFaults{DelayProb: 1.5}},
		"irq prob sum":     {IRQ: IRQFaults{DelayProb: 0.6, DropProb: 0.6, Delay: simclock.Seconds(1e-6, 2e-6, 3e-6)}},
		"irq bad delay":    {IRQ: IRQFaults{DelayProb: 0.5}},
		"irq neg retries":  {IRQ: IRQFaults{DropProb: 0.5, MaxRetries: -1}},
		"switch prob":      {Switch: SwitchFaults{SpikeProb: 2}},
		"switch bad spike": {Switch: SwitchFaults{SpikeProb: 0.5}},
	} {
		if err := plan.Validate(6); err == nil {
			t.Errorf("%s: plan %+v accepted", name, plan)
		}
	}
}
