// Package spec defines the versioned, serializable description of one
// simulation cell: hardware profile, workload, evader choice and parameters,
// defense configuration, fault plan, run horizon, and export switches — the
// complete recipe for one deterministic run. Every ROADMAP north-star item
// (the campaign engine, the co-evolution tournament, new scenario families)
// consumes this artifact: a spec can be stored, diffed, sharded across
// machines, swept over seeds, and fuzzed, none of which ad-hoc facade options
// or CLI flags allow.
//
// The contract has three parts:
//
//   - Parse reads strict JSON: unknown keys are rejected (forward
//     compatibility — a spec written by a newer build fails loudly instead
//     of being half-applied) and the version field is mandatory.
//   - Validate checks every semantic rule with a distinct error per field
//     class, so corpus tooling can triage rejections.
//   - Canonicalize fills defaults and normalizes the fault-plan string; on
//     the canonical form the round trip is lossless and idempotent:
//     Parse(Marshal(c)) == c exactly (reflect.DeepEqual).
//
// The conformance corpus under testdata/specs/ pins this contract to the
// repository's golden traces: every committed spec reproduces its golden
// byte-identically through `satin-sim -spec` (make spec-corpus-check).
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/faultinject"
)

// CurrentVersion is the spec format this build reads and writes.
const CurrentVersion = 1

// Enum values for the spec's string-typed fields. Strings, not Go enum ints,
// so a spec is meaningful without this package's source.
const (
	DefenseSATIN    = "satin"
	DefenseBaseline = "baseline"
	DefenseNone     = "none"

	EvaderFast   = "fast"
	EvaderThread = "thread"
	EvaderNone   = "none"

	TechniqueDirect   = "direct"
	TechniqueSnapshot = "snapshot"

	SelectFixed  = "fixed"
	SelectRandom = "random"

	GuardOff      = "off"
	GuardOn       = "on"
	GuardBypassed = "bypassed"

	RoutingNonPreemptive = "nonpreemptive"
	RoutingPreemptive    = "preemptive"
)

// DefaultProfile is the board every scenario models today.
const DefaultProfile = "juno-r1"

// Profiles maps each known hardware profile to its core count. Only the
// Juno r1 board the paper measured is buildable; the table is the extension
// point for alternative boards.
var Profiles = map[string]int{DefaultProfile: 6}

// defaultBaselinePeriod is the paper's tp ≈ 8 s measurement period.
const defaultBaselinePeriod = 8 * time.Second

// Duration is a time.Duration that serializes as a Go duration string
// ("19s", "200µs") instead of a bare nanosecond count, so specs stay
// readable and diffable.
type Duration time.Duration

// MarshalJSON renders the duration as a quoted Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON parses a quoted Go duration string; bare numbers are
// rejected so a spec never silently means nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a quoted Go duration string like \"8s\"")
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec is one complete scenario description. The zero value is not runnable;
// Canonicalize fills defaults and Validate states what is wrong. Optional
// sections are pointers (and booleans with non-false defaults are *bool) so
// "unset" is distinguishable from an explicit zero — the property the
// lossless round trip rests on.
type Spec struct {
	// Version must be CurrentVersion.
	Version int `json:"version"`
	// Name labels the spec in sweep output; purely descriptive.
	Name string `json:"name,omitempty"`
	// Seed is the root seed every deterministic stream derives from.
	// Instantiate overrides it per sweep trial.
	Seed uint64 `json:"seed"`
	// Hardware selects the simulated board; nil means juno-r1.
	Hardware *Hardware `json:"hardware,omitempty"`
	// Defense selects and tunes the introspection side.
	Defense Defense `json:"defense"`
	// Evader selects and tunes the attack side.
	Evader Evader `json:"evader"`
	// Guard is the §VII-A synchronous guard mode: off | on | bypassed.
	Guard string `json:"guard,omitempty"`
	// Routing is the §II-B NS-interrupt routing: nonpreemptive | preemptive.
	Routing string `json:"routing,omitempty"`
	// Workload adds background interference; nil means none.
	Workload *Workload `json:"workload,omitempty"`
	// Faults is a fault-injection plan in the -faults grammar; Canonicalize
	// rewrites it to Plan.String()'s normal form.
	Faults string `json:"faults,omitempty"`
	// Observability enables the event bus, timeline, and metrics registry;
	// nil means enabled.
	Observability *bool `json:"observability,omitempty"`
	// HashCache enables the checker's incremental hash cache; nil means
	// enabled.
	HashCache *bool `json:"hash_cache,omitempty"`
	// Profiling attaches the causal span profiler; nil means "only if an
	// export needs it" (chrome_trace or profile set).
	Profiling *bool `json:"profiling,omitempty"`
	// Run is the drive instruction: a fixed horizon or drain-to-completion.
	Run Run `json:"run"`
	// Export lists artifact files the run should write; nil means none.
	Export *Export `json:"export,omitempty"`
}

// Hardware selects the simulated board.
type Hardware struct {
	// Profile names a row of Profiles; empty means juno-r1.
	Profile string `json:"profile,omitempty"`
}

// Defense selects the introspection mechanism. Exactly the section matching
// Kind may be present; a missing section means that mechanism's defaults.
type Defense struct {
	// Kind is satin | baseline | none (empty means none).
	Kind     string          `json:"kind"`
	SATIN    *SATINConfig    `json:"satin,omitempty"`
	Baseline *BaselineConfig `json:"baseline,omitempty"`
}

// SATINConfig mirrors core.Config field for field in serializable form.
type SATINConfig struct {
	// Tgoal is the full-coverage period; zero means the paper's 152 s.
	Tgoal Duration `json:"tgoal"`
	// Technique is direct | snapshot; empty means direct.
	Technique string `json:"technique,omitempty"`
	// RandomDeviation applies ±tp wake-up deviation; nil means true.
	RandomDeviation *bool `json:"random_deviation,omitempty"`
	// FixedCore pins rounds to one core; nil means -1 (multi-core).
	FixedCore *int `json:"fixed_core,omitempty"`
	// MaxRounds bounds the run; 0 means run forever.
	MaxRounds int `json:"max_rounds,omitempty"`
	// AreaBound overrides the Equation 2 bound; 0 means the default.
	AreaBound int `json:"area_bound,omitempty"`
	// AllowUnsafeAreas skips the bound validation (ablation).
	AllowUnsafeAreas bool `json:"allow_unsafe_areas,omitempty"`
	// Seed drives area selection and wake-time randomness. 0 means "derive
	// from the root seed" (root+2, the facade convention), which is what
	// lets a sweep template follow Instantiate's per-trial seed.
	Seed uint64 `json:"seed,omitempty"`
}

// BaselineConfig mirrors introspect.BaselineConfig in serializable form.
type BaselineConfig struct {
	// Period is the time between checks; zero means the paper's 8 s.
	Period Duration `json:"period"`
	// RandomizePeriod adds the §III-B2 random trigger deviation.
	RandomizePeriod bool `json:"randomize_period,omitempty"`
	// Selection is fixed | random; empty means random.
	Selection string `json:"selection,omitempty"`
	// Core is the checking core when Selection is fixed.
	Core int `json:"core,omitempty"`
	// Technique is direct | snapshot; empty means direct.
	Technique string `json:"technique,omitempty"`
	// MaxRounds bounds the run; 0 means run until the simulation ends.
	MaxRounds int `json:"max_rounds,omitempty"`
}

// Evader selects the attack side.
type Evader struct {
	// Kind is fast | thread | none (empty means none).
	Kind string `json:"kind"`
	// Sleep is the prober interval Tsleep; zero means the paper's 200µs.
	Sleep Duration `json:"sleep,omitempty"`
	// Threshold is the probing threshold; zero means the paper's 1.8ms.
	Threshold Duration `json:"threshold,omitempty"`
	// RootkitAddr plants the trace at an arbitrary static-kernel address
	// instead of the GETTID table entry.
	RootkitAddr *uint64 `json:"rootkit_addr,omitempty"`
}

// Workload adds background interference to the scenario.
type Workload struct {
	// FloodRate is the §V-B SGI flood rate per core (interrupts/second),
	// at most attack.MaxFloodRate; 0 disables.
	FloodRate float64 `json:"flood_rate,omitempty"`
}

// Run says how to drive the scenario: exactly one of For or ToCompletion.
type Run struct {
	// For advances virtual time by a fixed horizon.
	For Duration `json:"for,omitempty"`
	// ToCompletion drains every pending event; it needs a bounded defense
	// and no perpetual event sources (thread evader, flood).
	ToCompletion bool `json:"to_completion,omitempty"`
}

// Export lists artifact files the run writes. Path suffixes select formats
// the same way the satin-sim flags do (.csv, .json).
type Export struct {
	// Timeline writes the merged event timeline (.json for JSON, else text).
	Timeline string `json:"timeline,omitempty"`
	// Trace streams events live as they happen (.csv for CSV, else JSONL).
	Trace string `json:"trace,omitempty"`
	// Metrics writes the end-of-run metrics snapshot (.csv or text).
	Metrics string `json:"metrics,omitempty"`
	// ChromeTrace writes a Chrome/Perfetto trace_event span profile.
	ChromeTrace string `json:"chrome_trace,omitempty"`
	// Profile writes the per-core virtual-time attribution table.
	Profile string `json:"profile,omitempty"`
}

// Parse decodes a spec from strict JSON: unknown keys, trailing data, and
// missing or mismatched versions are errors. Parse does not validate
// semantics — compose with Validate or Canonicalize.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: parse: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return Spec{}, fmt.Errorf("spec: trailing data after the spec object")
	}
	if s.Version == 0 {
		return Spec{}, fmt.Errorf(`spec: missing version (this build writes "version": %d)`, CurrentVersion)
	}
	if s.Version != CurrentVersion {
		return Spec{}, fmt.Errorf("spec: version %d unsupported (this build reads version %d)", s.Version, CurrentVersion)
	}
	return s, nil
}

// Marshal renders the spec as indented JSON with a trailing newline — the
// committed-file form. Marshal(Canonicalize(s)) then Parse is lossless.
func Marshal(s Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: marshal: %w", err)
	}
	return append(b, '\n'), nil
}

// Cores resolves the spec's hardware profile to its core count.
func (s Spec) Cores() (int, error) {
	profile := DefaultProfile
	if s.Hardware != nil && s.Hardware.Profile != "" {
		profile = s.Hardware.Profile
	}
	cores, ok := Profiles[profile]
	if !ok {
		return 0, fmt.Errorf("spec: unknown hardware profile %q (known: %s)", profile, DefaultProfile)
	}
	return cores, nil
}

// ObservabilityEnabled resolves the tri-state flag (nil means enabled).
func (s Spec) ObservabilityEnabled() bool {
	return s.Observability == nil || *s.Observability
}

// HashCacheEnabled resolves the tri-state flag (nil means enabled).
func (s Spec) HashCacheEnabled() bool {
	return s.HashCache == nil || *s.HashCache
}

// ProfilingEnabled resolves the tri-state flag: explicit setting wins,
// otherwise profiling turns on exactly when an export needs the profiler.
func (s Spec) ProfilingEnabled() bool {
	if s.Profiling != nil {
		return *s.Profiling
	}
	return s.Export != nil && (s.Export.ChromeTrace != "" || s.Export.Profile != "")
}

// boundedDefense reports whether the defense is guaranteed to stop on its
// own (MaxRounds set), which ToCompletion runs require.
func (s Spec) boundedDefense() bool {
	switch s.Defense.Kind {
	case DefenseSATIN:
		return s.Defense.SATIN != nil && s.Defense.SATIN.MaxRounds > 0
	case DefenseBaseline:
		return s.Defense.Baseline != nil && s.Defense.Baseline.MaxRounds > 0
	}
	return false
}

// Validate checks every semantic rule. Each invalid-field class yields its
// own error message (the rejection tests enumerate them), so tooling that
// generates or mutates specs can triage failures without re-parsing prose.
func Validate(s Spec) error {
	if s.Version != 0 && s.Version != CurrentVersion {
		return fmt.Errorf("spec: version %d unsupported (this build reads version %d)", s.Version, CurrentVersion)
	}
	cores, err := s.Cores()
	if err != nil {
		return err
	}
	if err := validateDefense(s.Defense, cores); err != nil {
		return err
	}
	if err := validateEvader(s.Evader); err != nil {
		return err
	}
	switch s.Guard {
	case "", GuardOff, GuardOn, GuardBypassed:
	default:
		return fmt.Errorf("spec: unknown guard mode %q (off | on | bypassed)", s.Guard)
	}
	switch s.Routing {
	case "", RoutingNonPreemptive, RoutingPreemptive:
	default:
		return fmt.Errorf("spec: unknown routing %q (nonpreemptive | preemptive)", s.Routing)
	}
	if s.Workload != nil {
		if math.IsNaN(s.Workload.FloodRate) || math.IsInf(s.Workload.FloodRate, 0) {
			return fmt.Errorf("spec: workload.flood_rate %v is not finite", s.Workload.FloodRate)
		}
		if s.Workload.FloodRate < 0 {
			return fmt.Errorf("spec: workload.flood_rate %v is negative", s.Workload.FloodRate)
		}
		if s.Workload.FloodRate > attack.MaxFloodRate {
			return fmt.Errorf("spec: workload.flood_rate %v exceeds %g per second", s.Workload.FloodRate, float64(attack.MaxFloodRate))
		}
	}
	if s.Faults != "" {
		plan, err := faultinject.ParsePlan(s.Faults)
		if err != nil {
			return fmt.Errorf("spec: faults: %w", err)
		}
		if err := plan.Validate(cores); err != nil {
			return fmt.Errorf("spec: faults: %w", err)
		}
	}
	if err := validateRun(s); err != nil {
		return err
	}
	return validateExport(s)
}

func validateDefense(d Defense, cores int) error {
	switch d.Kind {
	case "", DefenseNone:
		if d.SATIN != nil || d.Baseline != nil {
			return fmt.Errorf("spec: defense sections set but defense.kind is %q", d.Kind)
		}
		return nil
	case DefenseSATIN:
		if d.Baseline != nil {
			return fmt.Errorf("spec: defense.kind %q conflicts with a baseline section", d.Kind)
		}
		return validateSATIN(d.SATIN, cores)
	case DefenseBaseline:
		if d.SATIN != nil {
			return fmt.Errorf("spec: defense.kind %q conflicts with a satin section", d.Kind)
		}
		return validateBaseline(d.Baseline, cores)
	default:
		return fmt.Errorf("spec: unknown defense kind %q (satin | baseline | none)", d.Kind)
	}
}

func validateSATIN(c *SATINConfig, cores int) error {
	if c == nil {
		return nil
	}
	if c.Tgoal < 0 {
		return fmt.Errorf("spec: defense.satin.tgoal %v is negative", time.Duration(c.Tgoal))
	}
	if err := validateTechnique("defense.satin.technique", c.Technique); err != nil {
		return err
	}
	if c.FixedCore != nil && (*c.FixedCore < -1 || *c.FixedCore >= cores) {
		return fmt.Errorf("spec: defense.satin.fixed_core %d outside [-1, %d)", *c.FixedCore, cores)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("spec: defense.satin.max_rounds %d is negative", c.MaxRounds)
	}
	if c.AreaBound < 0 {
		return fmt.Errorf("spec: defense.satin.area_bound %d is negative", c.AreaBound)
	}
	return nil
}

func validateBaseline(c *BaselineConfig, cores int) error {
	if c == nil {
		return nil
	}
	if c.Period < 0 {
		return fmt.Errorf("spec: defense.baseline.period %v is negative", time.Duration(c.Period))
	}
	switch c.Selection {
	case "", SelectRandom:
	case SelectFixed:
		if c.Core < 0 || c.Core >= cores {
			return fmt.Errorf("spec: defense.baseline.core %d outside [0, %d)", c.Core, cores)
		}
	default:
		return fmt.Errorf("spec: unknown core selection %q (fixed | random)", c.Selection)
	}
	if err := validateTechnique("defense.baseline.technique", c.Technique); err != nil {
		return err
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("spec: defense.baseline.max_rounds %d is negative", c.MaxRounds)
	}
	return nil
}

func validateTechnique(field, v string) error {
	switch v {
	case "", TechniqueDirect, TechniqueSnapshot:
		return nil
	default:
		return fmt.Errorf("spec: unknown %s %q (direct | snapshot)", field, v)
	}
}

func validateEvader(e Evader) error {
	switch e.Kind {
	case "", EvaderNone:
		if e.Sleep != 0 || e.Threshold != 0 {
			return fmt.Errorf("spec: evader timing parameters set without an evader (kind %q)", e.Kind)
		}
		if e.RootkitAddr != nil {
			return fmt.Errorf("spec: evader.rootkit_addr set without an evader (kind %q)", e.Kind)
		}
		return nil
	case EvaderFast, EvaderThread:
		if e.Sleep < 0 {
			return fmt.Errorf("spec: evader.sleep %v is negative", time.Duration(e.Sleep))
		}
		if e.Threshold < 0 {
			return fmt.Errorf("spec: evader.threshold %v is negative", time.Duration(e.Threshold))
		}
		return nil
	default:
		return fmt.Errorf("spec: unknown evader kind %q (fast | thread | none)", e.Kind)
	}
}

func validateRun(s Spec) error {
	if s.Run.For < 0 {
		return fmt.Errorf("spec: run.for %v is negative", time.Duration(s.Run.For))
	}
	if s.Run.ToCompletion && s.Run.For > 0 {
		return fmt.Errorf("spec: run.for and run.to_completion are mutually exclusive")
	}
	if !s.Run.ToCompletion && s.Run.For == 0 {
		return fmt.Errorf(`spec: run needs either "for" or "to_completion": true`)
	}
	if s.Run.ToCompletion {
		if s.Evader.Kind == EvaderThread {
			return fmt.Errorf("spec: run.to_completion cannot drain a thread evader's perpetual events; use run.for")
		}
		if s.Workload != nil && s.Workload.FloodRate > 0 {
			return fmt.Errorf("spec: run.to_completion cannot drain an interrupt flood's perpetual events; use run.for")
		}
		if !s.boundedDefense() {
			return fmt.Errorf("spec: run.to_completion needs a bounded defense (set max_rounds)")
		}
	}
	return nil
}

func validateExport(s Spec) error {
	if s.Export == nil {
		return nil
	}
	paths := map[string]string{}
	for _, e := range []struct{ field, path string }{
		{"export.timeline", s.Export.Timeline},
		{"export.trace", s.Export.Trace},
		{"export.metrics", s.Export.Metrics},
		{"export.chrome_trace", s.Export.ChromeTrace},
		{"export.profile", s.Export.Profile},
	} {
		if e.path == "" {
			continue
		}
		if prev, dup := paths[e.path]; dup {
			return fmt.Errorf("spec: %s and %s both write to %q", prev, e.field, e.path)
		}
		paths[e.path] = e.field
	}
	if !s.ObservabilityEnabled() {
		for _, e := range []struct{ field, path string }{
			{"export.timeline", s.Export.Timeline},
			{"export.trace", s.Export.Trace},
			{"export.metrics", s.Export.Metrics},
		} {
			if e.path != "" {
				return fmt.Errorf("spec: %s needs observability, which the spec disables", e.field)
			}
		}
	}
	if s.Profiling != nil && !*s.Profiling {
		for _, e := range []struct{ field, path string }{
			{"export.chrome_trace", s.Export.ChromeTrace},
			{"export.profile", s.Export.Profile},
		} {
			if e.path != "" {
				return fmt.Errorf("spec: %s needs profiling, which the spec disables", e.field)
			}
		}
	}
	return nil
}

// Canonicalize validates the spec and returns its normal form: defaults
// materialized, the fault plan rewritten to Plan.String()'s fixed point,
// empty optional sections dropped. Canonical specs are the committed-corpus
// form; on them Marshal/Parse round trips losslessly and Canonicalize is
// idempotent. One deliberate non-default: a zero defense seed is NOT
// materialized, because zero means "derive from the root seed", the hook
// Instantiate-based sweeps rely on.
func Canonicalize(s Spec) (Spec, error) {
	c := s.Clone()
	if c.Version == 0 {
		c.Version = CurrentVersion
	}
	if c.Hardware == nil {
		c.Hardware = &Hardware{}
	}
	if c.Hardware.Profile == "" {
		c.Hardware.Profile = DefaultProfile
	}
	if c.Defense.Kind == "" {
		c.Defense.Kind = DefenseNone
	}
	if c.Evader.Kind == "" {
		c.Evader.Kind = EvaderNone
	}
	if c.Guard == "" {
		c.Guard = GuardOff
	}
	if c.Routing == "" {
		c.Routing = RoutingNonPreemptive
	}
	switch c.Defense.Kind {
	case DefenseSATIN:
		if c.Defense.SATIN == nil {
			c.Defense.SATIN = &SATINConfig{}
		}
		sat := c.Defense.SATIN
		if sat.Tgoal == 0 {
			sat.Tgoal = Duration(core.DefaultConfig().Tgoal)
		}
		if sat.Technique == "" {
			sat.Technique = TechniqueDirect
		}
		if sat.RandomDeviation == nil {
			v := true
			sat.RandomDeviation = &v
		}
		if sat.FixedCore == nil {
			v := -1
			sat.FixedCore = &v
		}
	case DefenseBaseline:
		if c.Defense.Baseline == nil {
			c.Defense.Baseline = &BaselineConfig{}
		}
		b := c.Defense.Baseline
		if b.Period == 0 {
			b.Period = Duration(defaultBaselinePeriod)
		}
		if b.Selection == "" {
			b.Selection = SelectRandom
		}
		if b.Technique == "" {
			b.Technique = TechniqueDirect
		}
	}
	if c.Evader.Kind == EvaderFast || c.Evader.Kind == EvaderThread {
		if c.Evader.Sleep == 0 {
			c.Evader.Sleep = Duration(attack.DefaultProberSleep)
		}
		if c.Evader.Threshold == 0 {
			c.Evader.Threshold = Duration(core.DefaultTnsThreshold)
		}
	}
	if c.Workload != nil && *c.Workload == (Workload{}) {
		c.Workload = nil
	}
	if c.Export != nil && *c.Export == (Export{}) {
		c.Export = nil
	}
	if err := Validate(c); err != nil {
		return Spec{}, err
	}
	if c.Faults != "" {
		plan, err := faultinject.ParsePlan(c.Faults)
		if err != nil {
			return Spec{}, fmt.Errorf("spec: faults: %w", err)
		}
		c.Faults = plan.String()
	}
	return c, nil
}

// Clone deep-copies the spec; mutating the copy never aliases the original.
func (s Spec) Clone() Spec {
	c := s
	c.Hardware = clonePtr(s.Hardware)
	c.Defense.SATIN = clonePtr(s.Defense.SATIN)
	if c.Defense.SATIN != nil {
		c.Defense.SATIN.RandomDeviation = clonePtr(c.Defense.SATIN.RandomDeviation)
		c.Defense.SATIN.FixedCore = clonePtr(c.Defense.SATIN.FixedCore)
	}
	c.Defense.Baseline = clonePtr(s.Defense.Baseline)
	c.Evader.RootkitAddr = clonePtr(s.Evader.RootkitAddr)
	c.Workload = clonePtr(s.Workload)
	c.Observability = clonePtr(s.Observability)
	c.HashCache = clonePtr(s.HashCache)
	c.Profiling = clonePtr(s.Profiling)
	c.Export = clonePtr(s.Export)
	return c
}

func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Instantiate stamps one sweep trial out of a template: a deep clone with
// the root seed replaced. A zero defense seed in the template keeps deriving
// from the new root (root+2), so every trial gets an independent schedule;
// an explicit defense seed is carried verbatim, pinning the defense schedule
// while the rest of the world varies — both behaviors the determinism sweeps
// depend on.
func Instantiate(tmpl Spec, seed uint64) Spec {
	c := tmpl.Clone()
	c.Seed = seed
	return c
}
