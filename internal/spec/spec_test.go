package spec

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// validSpec is a baseline every rejection test mutates: the golden-corpus
// clean scenario.
func validSpec() Spec {
	return Spec{
		Version: CurrentVersion,
		Seed:    1,
		Defense: Defense{Kind: DefenseSATIN, SATIN: &SATINConfig{
			Tgoal:     Duration(19 * time.Second),
			MaxRounds: 19,
		}},
		Evader: Evader{Kind: EvaderFast},
		Run:    Run{ToCompletion: true},
	}
}

func boolPtr(v bool) *bool    { return &v }
func intPtr(v int) *int       { return &v }
func u64Ptr(v uint64) *uint64 { return &v }

// TestValidateRejections drives every invalid-field class through Validate
// and pins its distinct error message, so spec-generating tooling can
// triage rejections by substring.
func TestValidateRejections(t *testing.T) {
	cases := map[string]struct {
		mutate func(*Spec)
		want   string
	}{
		"bad version": {
			func(s *Spec) { s.Version = 99 },
			"version 99 unsupported"},
		"unknown profile": {
			func(s *Spec) { s.Hardware = &Hardware{Profile: "raspi"} },
			`unknown hardware profile "raspi"`},
		"unknown defense kind": {
			func(s *Spec) { s.Defense.Kind = "firewall" },
			`unknown defense kind "firewall"`},
		"defense section without kind": {
			func(s *Spec) { s.Defense.Kind = DefenseNone },
			"defense sections set but defense.kind"},
		"satin with baseline section": {
			func(s *Spec) { s.Defense.Baseline = &BaselineConfig{} },
			"conflicts with a baseline section"},
		"baseline with satin section": {
			func(s *Spec) {
				s.Defense = Defense{Kind: DefenseBaseline,
					SATIN:    &SATINConfig{},
					Baseline: &BaselineConfig{Period: Duration(time.Second), MaxRounds: 5}}
			},
			"conflicts with a satin section"},
		"negative tgoal": {
			func(s *Spec) { s.Defense.SATIN.Tgoal = Duration(-time.Second) },
			"defense.satin.tgoal -1s is negative"},
		"unknown satin technique": {
			func(s *Spec) { s.Defense.SATIN.Technique = "photograph" },
			`unknown defense.satin.technique "photograph"`},
		"satin fixed core range": {
			func(s *Spec) { s.Defense.SATIN.FixedCore = intPtr(6) },
			"defense.satin.fixed_core 6 outside [-1, 6)"},
		"negative satin max rounds": {
			func(s *Spec) { s.Defense.SATIN.MaxRounds = -1 },
			"defense.satin.max_rounds -1 is negative"},
		"negative area bound": {
			func(s *Spec) { s.Defense.SATIN.AreaBound = -1 },
			"defense.satin.area_bound -1 is negative"},
		"negative baseline period": {
			func(s *Spec) {
				s.Defense = Defense{Kind: DefenseBaseline,
					Baseline: &BaselineConfig{Period: Duration(-time.Second), MaxRounds: 5}}
			},
			"defense.baseline.period -1s is negative"},
		"unknown core selection": {
			func(s *Spec) {
				s.Defense = Defense{Kind: DefenseBaseline,
					Baseline: &BaselineConfig{Selection: "spiral", MaxRounds: 5}}
			},
			`unknown core selection "spiral"`},
		"baseline core range": {
			func(s *Spec) {
				s.Defense = Defense{Kind: DefenseBaseline,
					Baseline: &BaselineConfig{Selection: SelectFixed, Core: 9, MaxRounds: 5}}
			},
			"defense.baseline.core 9 outside [0, 6)"},
		"unknown baseline technique": {
			func(s *Spec) {
				s.Defense = Defense{Kind: DefenseBaseline,
					Baseline: &BaselineConfig{Technique: "xerox", MaxRounds: 5}}
			},
			`unknown defense.baseline.technique "xerox"`},
		"negative baseline max rounds": {
			func(s *Spec) {
				s.Defense = Defense{Kind: DefenseBaseline,
					Baseline: &BaselineConfig{MaxRounds: -2}}
			},
			"defense.baseline.max_rounds -2 is negative"},
		"unknown evader kind": {
			func(s *Spec) { s.Evader.Kind = "quantum" },
			`unknown evader kind "quantum"`},
		"evader params without evader": {
			func(s *Spec) { s.Evader = Evader{Kind: EvaderNone, Sleep: Duration(time.Millisecond)} },
			"evader timing parameters set without an evader"},
		"rootkit addr without evader": {
			func(s *Spec) { s.Evader = Evader{Kind: EvaderNone, RootkitAddr: u64Ptr(0x1000)} },
			"evader.rootkit_addr set without an evader"},
		"negative sleep": {
			func(s *Spec) { s.Evader.Sleep = Duration(-time.Microsecond) },
			"evader.sleep -1µs is negative"},
		"negative threshold": {
			func(s *Spec) { s.Evader.Threshold = Duration(-time.Microsecond) },
			"evader.threshold -1µs is negative"},
		"unknown guard": {
			func(s *Spec) { s.Guard = "maybe" },
			`unknown guard mode "maybe"`},
		"unknown routing": {
			func(s *Spec) { s.Routing = "quantum" },
			`unknown routing "quantum"`},
		"negative flood rate": {
			func(s *Spec) { s.Workload = &Workload{FloodRate: -5} },
			"workload.flood_rate -5 is negative"},
		"flood rate past one burst per nanosecond": {
			func(s *Spec) { s.Workload = &Workload{FloodRate: 2e9} },
			"workload.flood_rate 2e+09 exceeds 1e+09"},
		"malformed fault plan": {
			func(s *Spec) { s.Faults = "jitter:lots" },
			"spec: faults:"},
		"fault plan out of range": {
			func(s *Spec) { s.Faults = "hotplug:core=9,off=1s" },
			"targets core 9 of 6"},
		"dvfs factor below the floor": {
			func(s *Spec) { s.Faults = "dvfs:at=1s,factor=1e-12" },
			"factor 1e-12 is below the floor"},
		"negative run horizon": {
			func(s *Spec) { s.Run = Run{For: Duration(-time.Second)} },
			"run.for -1s is negative"},
		"run both set": {
			func(s *Spec) { s.Run = Run{For: Duration(time.Second), ToCompletion: true} },
			"mutually exclusive"},
		"run neither set": {
			func(s *Spec) { s.Run = Run{} },
			`run needs either "for" or "to_completion"`},
		"to_completion with thread evader": {
			func(s *Spec) { s.Evader.Kind = EvaderThread },
			"cannot drain a thread evader"},
		"to_completion with flood": {
			func(s *Spec) { s.Workload = &Workload{FloodRate: 100} },
			"cannot drain an interrupt flood"},
		"to_completion unbounded": {
			func(s *Spec) { s.Defense.SATIN.MaxRounds = 0 },
			"needs a bounded defense"},
		"export duplicate path": {
			func(s *Spec) { s.Export = &Export{Trace: "out.jsonl", Timeline: "out.jsonl"} },
			`both write to "out.jsonl"`},
		"export without observability": {
			func(s *Spec) {
				s.Observability = boolPtr(false)
				s.Export = &Export{Trace: "out.jsonl"}
			},
			"export.trace needs observability"},
		"export without profiling": {
			func(s *Spec) {
				s.Profiling = boolPtr(false)
				s.Export = &Export{ChromeTrace: "spans.json"}
			},
			"export.chrome_trace needs profiling"},
	}
	seen := map[string]string{}
	for name, tc := range cases {
		s := validSpec()
		tc.mutate(&s)
		err := Validate(s)
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, tc.want)
		}
		// Distinctness: no two classes may collapse onto one message.
		if prev, dup := seen[err.Error()]; dup {
			t.Errorf("%s and %s share the error message %q", name, prev, err)
		}
		seen[err.Error()] = name
	}
}

func TestParseStrictness(t *testing.T) {
	for name, data := range map[string]string{
		"unknown key":      `{"version": 1, "defence": {"kind": "none"}, "run": {"for": "1s"}}`,
		"missing version":  `{"seed": 1, "run": {"for": "1s"}}`,
		"future version":   `{"version": 2, "run": {"for": "1s"}}`,
		"numeric duration": `{"version": 1, "run": {"for": 1000000}}`,
		"trailing data":    `{"version": 1, "run": {"for": "1s"}} {"version": 1}`,
		"not json":         `tp=8s scans=10`,
	} {
		if _, err := Parse([]byte(name + ":dummy")[:0]); err == nil {
			t.Fatal("empty input accepted")
		}
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, data)
		}
	}
}

// TestCanonicalizeRoundTrip is the tentpole guarantee: canonical specs
// survive Marshal→Parse with DeepEqual identity, and Canonicalize is
// idempotent.
func TestCanonicalizeRoundTrip(t *testing.T) {
	specs := map[string]Spec{
		"clean": validSpec(),
		"kitchen sink": {
			Version: CurrentVersion,
			Name:    "kitchen sink",
			Seed:    7,
			Defense: Defense{Kind: DefenseSATIN, SATIN: &SATINConfig{
				Tgoal:            Duration(40 * time.Second),
				Technique:        TechniqueSnapshot,
				RandomDeviation:  boolPtr(false),
				FixedCore:        intPtr(2),
				MaxRounds:        19,
				AreaBound:        1 << 20,
				AllowUnsafeAreas: true,
				Seed:             42,
			}},
			Evader: Evader{Kind: EvaderFast, Sleep: Duration(100 * time.Microsecond),
				Threshold: Duration(2 * time.Millisecond), RootkitAddr: u64Ptr(0xffff000008000000)},
			Guard:         GuardBypassed,
			Routing:       RoutingPreemptive,
			Faults:        "scale:1.5",
			Observability: boolPtr(true),
			HashCache:     boolPtr(false),
			Profiling:     boolPtr(true),
			Run:           Run{ToCompletion: true},
			Export:        &Export{Trace: "run.jsonl", ChromeTrace: "spans.json"},
		},
		"baseline thread": {
			Version: CurrentVersion,
			Seed:    3,
			Defense: Defense{Kind: DefenseBaseline, Baseline: &BaselineConfig{
				RandomizePeriod: true, MaxRounds: 5}},
			Evader:   Evader{Kind: EvaderThread},
			Workload: &Workload{FloodRate: 1000},
			Run:      Run{For: Duration(2 * time.Minute)},
		},
		"empty workload and export dropped": func() Spec {
			s := validSpec()
			s.Workload = &Workload{}
			s.Export = &Export{}
			return s
		}(),
	}
	for name, s := range specs {
		c, err := Canonicalize(s)
		if err != nil {
			t.Errorf("%s: Canonicalize: %v", name, err)
			continue
		}
		b, err := Marshal(c)
		if err != nil {
			t.Errorf("%s: Marshal: %v", name, err)
			continue
		}
		re, err := Parse(b)
		if err != nil {
			t.Errorf("%s: Parse(Marshal): %v\n%s", name, err, b)
			continue
		}
		if !reflect.DeepEqual(c, re) {
			t.Errorf("%s: round trip drifted\ncanonical: %+v\nreparsed:  %+v\njson:\n%s", name, c, re, b)
		}
		c2, err := Canonicalize(re)
		if err != nil || !reflect.DeepEqual(c, c2) {
			t.Errorf("%s: Canonicalize not idempotent (err %v)\nfirst:  %+v\nsecond: %+v", name, err, c, c2)
		}
	}
}

func TestCanonicalizeDefaults(t *testing.T) {
	c, err := Canonicalize(validSpec())
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	if c.Hardware == nil || c.Hardware.Profile != DefaultProfile {
		t.Errorf("hardware = %+v, want %s", c.Hardware, DefaultProfile)
	}
	if c.Guard != GuardOff || c.Routing != RoutingNonPreemptive {
		t.Errorf("guard %q routing %q, want off/nonpreemptive", c.Guard, c.Routing)
	}
	sat := c.Defense.SATIN
	if sat.Technique != TechniqueDirect || sat.RandomDeviation == nil || !*sat.RandomDeviation ||
		sat.FixedCore == nil || *sat.FixedCore != -1 {
		t.Errorf("satin defaults not materialized: %+v", sat)
	}
	if sat.Seed != 0 {
		t.Errorf("satin seed %d materialized; zero must stay zero (derive from root)", sat.Seed)
	}
	if time.Duration(c.Evader.Sleep) != 200*time.Microsecond ||
		time.Duration(c.Evader.Threshold) != 1800*time.Microsecond {
		t.Errorf("evader defaults = %v/%v, want 200µs/1.8ms", c.Evader.Sleep, c.Evader.Threshold)
	}
	// Fault plans canonicalize to Plan.String()'s fixed point.
	s := validSpec()
	s.Faults = " jitter:0.05 ; irq:p=0.05,delay=100us "
	c, err = Canonicalize(s)
	if err != nil {
		t.Fatalf("Canonicalize(faults): %v", err)
	}
	if want := "jitter:0.05;irq:p=0.05,delay=100µs"; c.Faults != want {
		t.Errorf("faults normalized to %q, want %q", c.Faults, want)
	}
}

func TestInstantiate(t *testing.T) {
	tmpl := validSpec()
	tmpl.Evader.RootkitAddr = u64Ptr(42)
	inst := Instantiate(tmpl, 9)
	if inst.Seed != 9 {
		t.Errorf("seed = %d, want 9", inst.Seed)
	}
	// Deep clone: mutating the instance never aliases the template.
	*inst.Evader.RootkitAddr = 7
	inst.Defense.SATIN.MaxRounds = 999
	if *tmpl.Evader.RootkitAddr != 42 || tmpl.Defense.SATIN.MaxRounds != 19 {
		t.Errorf("Instantiate aliased the template: %+v", tmpl)
	}
}
