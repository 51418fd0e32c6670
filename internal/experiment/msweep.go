package experiment

import (
	"fmt"
	"time"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/mem"
	"satin/internal/stats"
)

// MSweepTrial is one trace-size race.
type MSweepTrial struct {
	// M is the attacking-trace size in bytes.
	M int
	// RecoverTime is the evader's measured Tns_recover = M * Tns_1byte.
	RecoverTime time.Duration
	// Detected reports whether the whole-kernel check caught the trace.
	Detected bool
}

// MSweepResult quantifies §IV-C's observation 4: "the timing bottleneck of
// TZ-Evader is the time period for recovering its attacking trace
// Tns_recover". Against a fixed whole-kernel check with the trace anchored
// mid-kernel, growing M grows the recovery time linearly until the evader
// can no longer finish before the scan arrives — the crossover Equation 1
// predicts.
type MSweepResult struct {
	// TouchDepth is the anchor depth (fraction of the kernel).
	TouchDepth float64
	// PredictedCrossoverM is Equation 1 solved for M at this depth.
	PredictedCrossoverM int
	Trials              []MSweepTrial
}

// MeasuredCrossoverM returns the smallest M that was detected, or -1 if the
// evader won every trial.
func (r MSweepResult) MeasuredCrossoverM() int {
	for _, t := range r.Trials {
		if t.Detected {
			return t.M
		}
	}
	return -1
}

// Render prints the sweep.
func (r MSweepResult) Render() string {
	tbl := stats.NewTable("M (trace bytes)", "Tns_recover", "Whole-kernel check outcome")
	for _, t := range r.Trials {
		verdict := "EVADED"
		if t.Detected {
			verdict = "detected"
		}
		tbl.AddRow(fmt.Sprintf("%d", t.M), t.RecoverTime.Truncate(time.Microsecond).String(), verdict)
	}
	return tbl.String() +
		fmt.Sprintf("trace anchored at %.0f%% of the kernel; Eq. 1 predicts the crossover at M ≈ %d bytes\n",
			r.TouchDepth*100, r.PredictedCrossoverM)
}

// MSweepSizes are the trace sizes swept (bytes, multiples of the 8-byte
// unit the rootkit writes).
func MSweepSizes() []int { return []int{8, 16, 24, 32, 40, 48, 64, 96, 128, 192} }

// RunMSweep races each trace size against one whole-kernel A57 check with
// the trace anchored at the given depth.
func RunMSweep(seed uint64, depth float64) (MSweepResult, error) {
	if depth <= 0 || depth >= 1 {
		return MSweepResult{}, fmt.Errorf("experiment: depth %v must be in (0, 1)", depth)
	}
	result := MSweepResult{TouchDepth: depth}
	// Equation 1 solved for M: the evader wins while
	// Tns_delay + M*Tns_1byte < Ts_switch + S*Ts_1byte, with S = depth *
	// kernel. Use the calibrated averages. touch is converted so arm64
	// cannot fuse its product into the subtraction below (make fma-check).
	layout := mem.JunoKernelLayout()
	touch := float64(depth * float64(layout.TotalSize()) * 6.71e-9) // A57 scan to the anchor
	delay := (core.DefaultTnsSched + core.DefaultTnsThreshold).Seconds()
	// Tns_1byte for recovery, A53 average: 5.80 ms / 8 B = 7.25e-4 s/B
	// (the slow-cleaner case, as the paper's worst-case analysis uses).
	const perByte = 7.25e-4
	result.PredictedCrossoverM = int((touch - delay) / perByte)

	for _, m := range MSweepSizes() {
		trial, err := runMSweepTrial(seed, depth, m)
		if err != nil {
			return MSweepResult{}, fmt.Errorf("experiment: M=%d: %w", m, err)
		}
		result.Trials = append(result.Trials, trial)
	}
	return result, nil
}

func runMSweepTrial(seed uint64, depth float64, m int) (MSweepTrial, error) {
	if m%mem.SyscallEntrySize != 0 || m <= 0 {
		return MSweepTrial{}, fmt.Errorf("experiment: M %d must be a positive multiple of 8", m)
	}
	rig, err := NewRig(seed + uint64(m)*13)
	if err != nil {
		return MSweepTrial{}, err
	}
	layout := rig.Image.Layout()
	kernelSize := layout.TotalSize()
	// Spread the trace's 8-byte units from the anchor, 64 bytes apart.
	anchor := layout.Base + uint64(depth*float64(kernelSize))
	var targets []uint64
	for i := 0; i < m/mem.SyscallEntrySize; i++ {
		targets = append(targets, anchor+uint64(i)*64)
	}
	rootkit := attack.NewRootkitSpread(rig.OS, rig.Image, targets)
	race, err := rig.raceCheck(rootkit, seed+7, 100*time.Millisecond, layout.Base, kernelSize)
	if err != nil {
		return MSweepTrial{}, err
	}
	// Measured recovery time: suspect -> hidden gap from the event log.
	trial := MSweepTrial{M: m, Detected: race.detected}
	if suspectAt, hiddenAt := race.firstReactions(); hiddenAt > suspectAt && suspectAt > 0 {
		trial.RecoverTime = hiddenAt - suspectAt
	}
	return trial, nil
}
