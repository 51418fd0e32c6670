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

// FromSpec canonicalizes the spec and assembles the Scenario it describes;
// it is the one way to build a Scenario. The run horizon and export
// switches are carried by the spec, not the Scenario; drive the returned
// Scenario with DriveSpec (or Run/RunToCompletion directly).
func FromSpec(s ScenarioSpec) (*Scenario, error) {
	c, err := spec.Canonicalize(s)
	if err != nil {
		return nil, err
	}
	return newScenario(c, nil)
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
// image from boot when it is not nil (see newScenario). It also returns the
// boot state of the scenario it built, nil when the build failed, so that
// RunCheckpointGroup's later members of the seed can share it.
func runSpecTrial(c ScenarioSpec, boot *mem.BootState) (SweepMetrics, *mem.BootState, error) {
	sc, err := newScenario(c, boot)
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
