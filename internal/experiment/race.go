package experiment

import (
	"fmt"
	"time"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/stats"
)

// RaceResult reproduces the §IV-C race-condition analysis: the analytic S
// bound of Equation 2, the fraction of the kernel it leaves unprotected
// against TZ-Evader under full-kernel introspection, and an empirical sweep
// that validates both by racing a fast evader against a whole-kernel check
// with the trace planted at varying depths.
type RaceResult struct {
	// SBound is Equation 2's byte bound (paper: 1,218,351).
	SBound int
	// KernelSize is the scanned kernel's size (paper: 11,916,240).
	KernelSize int
	// UnprotectedAnalytic = 1 - SBound/KernelSize (paper: ≈90%).
	UnprotectedAnalytic float64
	// Sweep holds one entry per planted trace depth.
	Sweep []RaceTrial
	// UnprotectedEmpirical is the fraction of sweep trials the evader won.
	UnprotectedEmpirical float64
}

// RaceTrial is one planted-depth race.
type RaceTrial struct {
	// Fraction is the trace's depth into the kernel (0..1).
	Fraction float64
	// Detected reports whether the whole-kernel check caught the trace.
	Detected bool
}

// Render prints the analysis.
func (r RaceResult) Render() string {
	tbl := stats.NewTable("Quantity", "Value")
	tbl.AddRow("S bound (Eq. 2)", fmt.Sprintf("%d bytes", r.SBound))
	tbl.AddRow("kernel size", fmt.Sprintf("%d bytes", r.KernelSize))
	tbl.AddRow("unprotected (analytic)", stats.Pct(r.UnprotectedAnalytic))
	tbl.AddRow("unprotected (empirical sweep)", stats.Pct(r.UnprotectedEmpirical))
	out := tbl.String() + "\n"
	sweep := stats.NewTable("Trace depth", "Detected by full-kernel check")
	for _, tr := range r.Sweep {
		verdict := "EVADED"
		if tr.Detected {
			verdict = "detected"
		}
		sweep.AddRow(fmt.Sprintf("%.0f%%", tr.Fraction*100), verdict)
	}
	return out + sweep.String()
}

// RaceSweepPoints is the number of planted depths in the empirical sweep.
const RaceSweepPoints = 20

// RunRace computes the analytic bound and runs the empirical sweep: for
// each depth, a whole-kernel A57 check races a fast evader whose 8-byte
// trace sits at that depth.
func RunRace(seed uint64) (RaceResult, error) {
	result := RaceResult{
		SBound: core.DefaultRaceBound(),
	}
	for i := 0; i < RaceSweepPoints; i++ {
		frac := (float64(i) + 0.5) / RaceSweepPoints
		detected, kernelSize, err := raceTrial(seed+uint64(i)*101, frac)
		if err != nil {
			return RaceResult{}, err
		}
		result.KernelSize = kernelSize
		result.Sweep = append(result.Sweep, RaceTrial{Fraction: frac, Detected: detected})
		if !detected {
			result.UnprotectedEmpirical += 1.0 / RaceSweepPoints
		}
	}
	result.UnprotectedAnalytic = 1 - float64(result.SBound)/float64(result.KernelSize)
	return result, nil
}

// raceTrial plants the trace at depth frac and runs one whole-kernel check
// on an A57 core against a fast evader.
func raceTrial(seed uint64, frac float64) (detected bool, kernelSize int, err error) {
	rig, err := NewRig(seed)
	if err != nil {
		return false, 0, err
	}
	layout := rig.Image.Layout()
	kernelSize = layout.TotalSize()
	// Plant the 8-byte trace at depth frac, clamped inside the kernel; the
	// offset is not rounded to an 8-byte boundary.
	offset := uint64(frac * float64(kernelSize))
	if offset+8 > uint64(kernelSize) {
		offset = uint64(kernelSize) - 8
	}
	rootkit := attack.NewRootkitAt(rig.OS, rig.Image, layout.Base+offset)
	// Give the evader a moment of steady state, then check.
	race, err := rig.raceCheck(rootkit, seed+7, 100*time.Millisecond, layout.Base, kernelSize)
	if err != nil {
		return false, 0, err
	}
	return race.detected, kernelSize, nil
}
