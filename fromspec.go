package satin

import (
	"time"

	"satin/internal/mem"
	"satin/internal/spec"
)

// ScenarioSpec is the versioned, serializable description of one scenario —
// see internal/spec for the format contract. It is the artifact sweeps,
// the conformance corpus, and `satin-sim -spec` exchange.
type ScenarioSpec = spec.Spec

// ScenarioSpecVersion is the spec format this build reads and writes.
const ScenarioSpecVersion = spec.CurrentVersion

// Spec section types, re-exported so callers can assemble specs in Go
// without reaching into internal packages.
type (
	// SpecHardware selects the simulated board.
	SpecHardware = spec.Hardware
	// SpecDefense selects and tunes the introspection side.
	SpecDefense = spec.Defense
	// SpecSATINConfig is core.Config in serializable form.
	SpecSATINConfig = spec.SATINConfig
	// SpecBaselineConfig is introspect.BaselineConfig in serializable form.
	SpecBaselineConfig = spec.BaselineConfig
	// SpecEvader selects and tunes the attack side.
	SpecEvader = spec.Evader
	// SpecWorkload adds background interference.
	SpecWorkload = spec.Workload
	// SpecRun is the drive instruction.
	SpecRun = spec.Run
	// SpecExport lists artifact files a run writes.
	SpecExport = spec.Export
	// SpecDuration serializes as a Go duration string.
	SpecDuration = spec.Duration
)

// ParseSpec decodes a scenario spec from strict JSON (unknown keys and bad
// versions are errors). The result is not yet validated or canonical.
func ParseSpec(data []byte) (ScenarioSpec, error) { return spec.Parse(data) }

// CanonicalizeSpec validates and normalizes a spec; see spec.Canonicalize.
func CanonicalizeSpec(s ScenarioSpec) (ScenarioSpec, error) { return spec.Canonicalize(s) }

// MarshalSpec renders a spec as indented JSON with a trailing newline.
func MarshalSpec(s ScenarioSpec) ([]byte, error) { return spec.Marshal(s) }

// InstantiateSpec stamps one sweep trial out of a template: a deep clone
// with the root seed replaced.
func InstantiateSpec(tmpl ScenarioSpec, seed uint64) ScenarioSpec {
	return spec.Instantiate(tmpl, seed)
}

// FromSpec canonicalizes the spec and assembles the Scenario it describes —
// the same Scenario the equivalent facade options build, a guarantee the
// differential golden tests enforce byte for byte. The run horizon and
// export switches are carried by the spec, not the Scenario; drive the
// returned Scenario with DriveSpec (or Run/RunToCompletion directly).
func FromSpec(s ScenarioSpec) (*Scenario, error) {
	return fromSpec(s, nil)
}

// fromSpec is FromSpec building the kernel image from boot, when it is not
// nil, instead of booting it from the seed (see ResumeScenario and
// RunCheckpointGroup).
func fromSpec(s ScenarioSpec, boot *mem.BootState) (*Scenario, error) {
	c, err := spec.Canonicalize(s)
	if err != nil {
		return nil, err
	}
	opts := []Option{WithSeed(c.Seed)}
	if !c.ObservabilityEnabled() {
		opts = append(opts, WithObservability(false))
	}
	if !c.HashCacheEnabled() {
		opts = append(opts, WithHashCache(false))
	}
	if c.ProfilingEnabled() {
		opts = append(opts, WithProfiling(true))
	}
	if c.Routing == spec.RoutingPreemptive {
		opts = append(opts, WithRouting(Preemptive))
	}
	switch c.Guard {
	case spec.GuardOn:
		opts = append(opts, WithSyncGuard(false))
	case spec.GuardBypassed:
		opts = append(opts, WithSyncGuard(true))
	}
	if c.Workload != nil && c.Workload.FloodRate > 0 {
		opts = append(opts, WithFlood(c.Workload.FloodRate))
	}
	if c.Faults != "" {
		plan, err := ParseFaultPlan(c.Faults)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithFaultPlan(plan))
	}
	switch c.Evader.Kind {
	case spec.EvaderFast:
		opts = append(opts, WithFastEvader(time.Duration(c.Evader.Sleep), time.Duration(c.Evader.Threshold)))
	case spec.EvaderThread:
		opts = append(opts,
			WithThreadEvader(time.Duration(c.Evader.Threshold)),
			WithProberSleep(time.Duration(c.Evader.Sleep)))
	}
	if c.Evader.RootkitAddr != nil {
		opts = append(opts, WithRootkitAt(*c.Evader.RootkitAddr))
	}
	switch c.Defense.Kind {
	case spec.DefenseSATIN:
		sat := c.Defense.SATIN
		cfg := Config{
			Tgoal:            time.Duration(sat.Tgoal),
			Technique:        techniqueFromSpec(sat.Technique),
			RandomDeviation:  *sat.RandomDeviation,
			FixedCore:        *sat.FixedCore,
			MaxRounds:        sat.MaxRounds,
			AreaBound:        sat.AreaBound,
			AllowUnsafeAreas: sat.AllowUnsafeAreas,
			Seed:             sat.Seed,
		}
		if cfg.Seed == 0 {
			// Zero means "derive from the root seed": root+2, the same
			// convention satin-sim's flag path has always used, so sweep
			// templates follow InstantiateSpec's per-trial seed.
			cfg.Seed = c.Seed + 2
		}
		opts = append(opts, WithSATIN(cfg))
	case spec.DefenseBaseline:
		b := c.Defense.Baseline
		sel := RandomCore
		if b.Selection == spec.SelectFixed {
			sel = FixedCore
		}
		opts = append(opts, WithBaseline(BaselineConfig{
			Period:          time.Duration(b.Period),
			RandomizePeriod: b.RandomizePeriod,
			Selection:       sel,
			Core:            b.Core,
			Technique:       techniqueFromSpec(b.Technique),
			MaxRounds:       b.MaxRounds,
		}))
	}
	return newScenario(boot, opts...)
}

func techniqueFromSpec(v string) Technique {
	if v == spec.TechniqueSnapshot {
		return SnapshotHash
	}
	return DirectHash
}

// DriveSpec runs the scenario as the spec's run section instructs: drain to
// completion or advance a fixed virtual horizon.
func DriveSpec(sc *Scenario, s ScenarioSpec) {
	if s.Run.ToCompletion {
		sc.RunToCompletion()
		return
	}
	if d := time.Duration(s.Run.For); d > 0 {
		sc.Run(d)
	}
}

// RunSpecTrial builds the spec's scenario, drives it, and reduces the run to
// sweep metrics — the canonical trial function for spec-template sweeps
// (campaign cells, and so `benchtables -spec`). The metric set depends
// only on the spec's shape (defense and evader kinds), never on outcomes, so
// every seed of a sweep reports the same columns.
func RunSpecTrial(s ScenarioSpec) (SweepMetrics, error) {
	c, err := spec.Canonicalize(s)
	if err != nil {
		return nil, err
	}
	m, _, err := runSpecTrial(c, nil)
	return m, err
}

// runSpecTrial is RunSpecTrial for a canonical spec, building the kernel
// image from boot when it is not nil (see fromSpec). It also returns the
// boot state of the scenario it built, nil when the build failed, so that
// RunCheckpointGroup's later members of the seed can share it.
func runSpecTrial(c ScenarioSpec, boot *mem.BootState) (SweepMetrics, *mem.BootState, error) {
	sc, err := fromSpec(c, boot)
	if err != nil {
		return nil, nil, err
	}
	DriveSpec(sc, c)
	return specTrialMetrics(c, sc.Report()), sc.image.Boot(), nil
}

// specTrialMetrics reduces a finished run to the trial metric set. Shared by
// RunSpecTrial and the group trial's forked members, which must produce the
// identical rows for the identical spec.
func specTrialMetrics(c ScenarioSpec, rep Report) SweepMetrics {
	var m SweepMetrics
	switch c.Defense.Kind {
	case spec.DefenseSATIN:
		m = m.Add("rounds", float64(rep.SATINRounds)).
			Add("full scans", float64(rep.FullScans)).
			Add("alarms", float64(rep.Alarms))
	case spec.DefenseBaseline:
		m = m.Add("rounds", float64(rep.BaselineRounds)).
			Add("clean rounds", float64(rep.BaselineClean))
	}
	m = m.Add("detected", boolMetric(rep.Detected))
	switch c.Evader.Kind {
	case spec.EvaderFast, spec.EvaderThread:
		m = m.Add("suspects", float64(rep.Suspects)).
			Add("hides", float64(rep.Hides)).
			Add("reinstalls", float64(rep.Reinstalls))
	}
	return m
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
