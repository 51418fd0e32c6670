package experiment

import (
	"fmt"
	"time"

	"satin/internal/core"
	"satin/internal/stats"
	"satin/internal/workload"
)

// DecompositionResult splits the Figure 7 context-switching overhead into
// its two components:
//
//   - Structural: a pipe ping-pong pair built on the simulator's real
//     block/wake and pipe primitives, with no fitted parameters. Its only
//     loss under SATIN is the stall while a core is held.
//   - Calibrated: the Spec-based context_switching workload, whose
//     warm-state penalty is fitted to the paper's 3.912% bar.
//
// The gap between the two is the share of the paper's measured overhead
// that the mechanical stall cannot explain — the cache/TLB/affinity
// disruption the calibrated penalty stands in for. DESIGN.md documents this
// as the one fitted component of the Figure 7 reproduction; this experiment
// bounds how much work that fit is doing.
type DecompositionResult struct {
	// Structural is the degradation of the unfitted ping-pong benchmark.
	Structural float64
	// Calibrated is the degradation of the fitted context_switching spec.
	Calibrated float64
	// PaperBar is the value the paper reports (3.912%).
	PaperBar float64
}

// StructuralShare is Structural / Calibrated: how much of the modeled bar
// the mechanics alone produce.
func (r DecompositionResult) StructuralShare() float64 {
	if r.Calibrated == 0 {
		return 0
	}
	return r.Structural / r.Calibrated
}

// Render prints the decomposition.
func (r DecompositionResult) Render() string {
	tbl := stats.NewTable("Component", "Degradation", "Note")
	tbl.AddRow("structural stall (unfitted ping-pong)", stats.Pct(r.Structural), "block/wake + pipes, no fitted parameters")
	tbl.AddRow("calibrated workload (context_switching)", stats.Pct(r.Calibrated), "warm-state penalty fitted to the paper")
	tbl.AddRow("paper's bar", stats.Pct(r.PaperBar), "Fig. 7, pipe-based context switching")
	return tbl.String() +
		fmt.Sprintf("structural share of the modeled bar: %.0f%% — the rest is warm-state disruption\n",
			r.StructuralShare()*100)
}

// RunDecomposition measures both components over the given window with the
// paper's per-core 8 s wake schedule.
func RunDecomposition(seed uint64, window time.Duration) (DecompositionResult, error) {
	if window <= 0 {
		return DecompositionResult{}, fmt.Errorf("experiment: window %v must be positive", window)
	}
	result := DecompositionResult{PaperBar: 0.03912}

	// Structural: pipe ping-pong, one pair, 50 µs per exchange, both runs
	// on one boot of the seed's kernel.
	boot, err := bootJuno(seed)
	if err != nil {
		return DecompositionResult{}, err
	}
	structural := func(withSATIN bool) (int64, error) {
		rig, err := NewRigFrom(seed, boot)
		if err != nil {
			return 0, err
		}
		pp, err := workload.StartPingPong(rig.OS, 1, 50*time.Microsecond)
		if err != nil {
			return 0, err
		}
		if withSATIN {
			if err := startFig7SATIN(rig, seed); err != nil {
				return 0, err
			}
		}
		rig.Engine.RunFor(window)
		return pp.Exchanges(), nil
	}
	base, err := structural(false)
	if err != nil {
		return DecompositionResult{}, err
	}
	under, err := structural(true)
	if err != nil {
		return DecompositionResult{}, err
	}
	if base > 0 {
		result.Structural = 1 - float64(under)/float64(base)
	}

	// Calibrated: the fitted context_switching spec at the same schedule.
	var spec workload.Spec
	for _, s := range workload.UnixBench() {
		if s.Name == "context_switching" {
			spec = s
		}
	}
	cfg := Fig7Config{Specs: []workload.Spec{spec}, Tasks: []int{1}, Window: window, Seed: seed}
	fig7, err := RunFig7(cfg)
	if err != nil {
		return DecompositionResult{}, err
	}
	row, err := fig7.Row("context_switching", 1)
	if err != nil {
		return DecompositionResult{}, err
	}
	result.Calibrated = row.Degradation
	return result, nil
}

// startFig7SATIN installs SATIN with the overhead experiment's schedule
// (each core waking every fig7WakePeriod).
func startFig7SATIN(rig *Rig, seed uint64) error {
	areas, err := rig.JunoAreas()
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	// Per-core wake period P with n cores means a system-wide round every
	// P/n, i.e. Tgoal = m*P/n.
	cfg.Tgoal = time.Duration(len(areas)) * fig7WakePeriod / time.Duration(rig.Plat.NumCores())
	cfg.Seed = seed + 13
	satin, err := core.New(rig.Plat, rig.Monitor, rig.Image, rig.Checker, areas, cfg)
	if err != nil {
		return err
	}
	return satin.Start()
}
