package experiment

import (
	"fmt"
	"strings"
	"time"

	"satin/internal/attack"
	"satin/internal/stats"
)

// Fig3Result reproduces Figure 3 ("Race Condition Between Two Worlds on
// Multi-Core System") with *measured* instants from one simulated race:
// the secure world's entry and byte-touch timeline against the evader's
// probe-detect-recover timeline, for a race each side wins.
type Fig3Result struct {
	// TStart is the introspection request (the secure timer interrupt).
	TStart time.Duration
	// SecureStart is t_start + Ts_switch: the check begins.
	SecureStart time.Duration
	// TouchMalicious is when the scan reached the malicious bytes.
	TouchMalicious time.Duration
	// EvaderDetect is t_start + Tns_delay: the comparer flags the core.
	EvaderDetect time.Duration
	// TraceGone is EvaderDetect + Tns_recover: the bytes are benign again.
	TraceGone time.Duration
	// Detected says who won.
	Detected bool
	// Scenario labels the run ("baseline full kernel" / "SATIN area").
	Scenario string
}

// Render draws the two timelines, one per world, as the paper's figure
// does.
func (r Fig3Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s ---\n", r.Scenario)
	rel := func(t time.Duration) string {
		return fmt.Sprintf("t+%8s", (t - r.TStart).Truncate(time.Microsecond))
	}
	fmt.Fprintf(&sb, "secure world: %s request  %s check starts (Ts_switch)  %s touches malicious bytes\n",
		rel(r.TStart), rel(r.SecureStart), rel(r.TouchMalicious))
	fmt.Fprintf(&sb, "normal world: %s attack live  %s prober detects (Tns_delay)  %s trace recovered (Tns_recover)\n",
		rel(r.TStart), rel(r.EvaderDetect), rel(r.TraceGone))
	verdict := "EVADED: recovery (%s) beat the touch (%s)\n"
	if r.Detected {
		verdict = "DETECTED: touch (%[2]s) beat the recovery (%[1]s)\n"
	}
	fmt.Fprintf(&sb, verdict, rel(r.TraceGone), rel(r.TouchMalicious))
	return sb.String()
}

// RunFig3 runs the race twice — once against a whole-kernel baseline check
// (the evader wins) and once against a SATIN-sized area check (the defender
// wins) — and returns both measured timelines.
func RunFig3(seed uint64) ([]Fig3Result, error) {
	baseline, err := fig3Race(seed, false)
	if err != nil {
		return nil, err
	}
	satinSized, err := fig3Race(seed, true)
	if err != nil {
		return nil, err
	}
	return []Fig3Result{baseline, satinSized}, nil
}

// RenderFig3 renders both timelines.
func RenderFig3(results []Fig3Result) string {
	var sb strings.Builder
	sb.WriteString("Race parameters (calibrated): Ts_switch " + stats.SciSeconds(2.95e-6) +
		", Ts_1byte(A57) " + stats.SciSeconds(6.71e-9) +
		", Tns_delay ≈ " + stats.SciSeconds(2.0e-3) +
		", Tns_recover ≈ " + stats.SciSeconds(5.4e-3) + "\n")
	for _, r := range results {
		sb.WriteString(r.Render())
	}
	return sb.String()
}

// fig3Race runs one instrumented race on an A57 core with the trace in
// area 14. satinSized selects the checked range: the whole kernel (baseline)
// or just area 14 (SATIN-sized round).
func fig3Race(seed uint64, satinSized bool) (Fig3Result, error) {
	rig, err := NewRig(seed)
	if err != nil {
		return Fig3Result{}, err
	}
	areas, err := rig.JunoAreas()
	if err != nil {
		return Fig3Result{}, err
	}
	area := areas[14]
	// The trace sits mid-area so both outcomes are unambiguous.
	target := area.Addr + uint64(area.Size/2)
	checkAddr, checkSize := rig.Image.Layout().Base, rig.Image.Layout().TotalSize()
	scenario := "baseline: whole-kernel check, trace ~82% deep"
	if satinSized {
		checkAddr, checkSize = area.Addr, area.Size
		scenario = "SATIN: single-area check (area 14), same trace"
	}

	const tStart = 100 * time.Millisecond
	race, err := rig.raceCheck(attack.NewRootkitAt(rig.OS, rig.Image, target), seed+7, tStart, checkAddr, checkSize)
	if err != nil {
		return Fig3Result{}, err
	}
	result := Fig3Result{TStart: tStart, SecureStart: race.Started.Duration(), Detected: race.detected, Scenario: scenario}
	// Touch time of the malicious bytes: offset into the checked range at
	// the check's drawn scan rate.
	offset := float64(target - checkAddr)
	perByte := race.Elapsed().Seconds() / float64(checkSize)
	result.TouchMalicious = result.SecureStart + time.Duration(offset*perByte*float64(time.Second))
	result.EvaderDetect, result.TraceGone = race.firstReactions()
	if result.EvaderDetect == 0 || result.TraceGone == 0 {
		return Fig3Result{}, fmt.Errorf("experiment: evader never reacted in the Fig 3 race")
	}
	return result, nil
}
