package experiment

import (
	"fmt"
	"time"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/introspect"
	"satin/internal/simclock"
	"satin/internal/stats"
)

// EvasionResult reproduces the premise of §IV/§VI: TZ-Evader defeats the
// state-of-the-art baseline (random-period, random-core, full-kernel
// asynchronous introspection), while the attack stays active essentially
// the whole time.
type EvasionResult struct {
	Rounds        int
	CleanVerdicts int
	// EvasionRate is the fraction of rounds the baseline reported clean
	// despite the persistent rootkit (paper's implication: 100% for a
	// trace deep in the kernel).
	EvasionRate float64
	// SuspectEvents is how many introspection entries the evader's prober
	// flagged.
	SuspectEvents int
	// ActiveFraction approximates the share of time the rootkit spent
	// attacking (vs hidden for evasion).
	ActiveFraction float64
}

// Render prints the result.
func (r EvasionResult) Render() string {
	tbl := stats.NewTable("Quantity", "Value")
	tbl.AddRow("baseline rounds", fmt.Sprintf("%d", r.Rounds))
	tbl.AddRow("clean verdicts (evaded)", fmt.Sprintf("%d", r.CleanVerdicts))
	tbl.AddRow("evasion success rate", stats.Pct(r.EvasionRate))
	tbl.AddRow("prober suspect events", fmt.Sprintf("%d", r.SuspectEvents))
	tbl.AddRow("rootkit active fraction", stats.Pct(r.ActiveFraction))
	return tbl.String()
}

// RunEvasion races TZ-Evader against `rounds` rounds of the randomized
// full-kernel baseline with the paper's GETTID rootkit (trace ≈81% into
// the kernel).
func RunEvasion(seed uint64, rounds int, period time.Duration) (EvasionResult, error) {
	if rounds <= 0 || period <= 0 {
		return EvasionResult{}, fmt.Errorf("experiment: rounds %d and period %v must be positive", rounds, period)
	}
	rig, err := NewRig(seed)
	if err != nil {
		return EvasionResult{}, err
	}
	rootkit := attack.NewRootkit(rig.OS, rig.Image)
	evader, err := attack.NewFastEvader(rig.Plat, rig.Image, rootkit,
		attack.DefaultProberSleep, core.DefaultTnsThreshold, seed+7)
	if err != nil {
		return EvasionResult{}, err
	}
	if err := evader.Start(); err != nil {
		return EvasionResult{}, err
	}
	baseline, err := introspect.NewBaseline(rig.Plat, rig.Monitor, rig.Checker, rig.Image, seed+11, introspect.BaselineConfig{
		Period:          period,
		RandomizePeriod: true,
		Selection:       introspect.RandomCore,
		Technique:       introspect.DirectHash,
		MaxRounds:       rounds,
	})
	if err != nil {
		return EvasionResult{}, err
	}
	if err := baseline.Start(); err != nil {
		return EvasionResult{}, err
	}
	rig.Engine.Run()

	outs := baseline.Outcomes()
	result := EvasionResult{Rounds: len(outs), SuspectEvents: len(evader.SuspectEvents())}
	for _, o := range outs {
		if o.Clean {
			result.CleanVerdicts++
		}
	}
	if len(outs) > 0 {
		result.EvasionRate = float64(result.CleanVerdicts) / float64(len(outs))
	}
	result.ActiveFraction = activeFraction(rootkit, rig)
	return result, nil
}

// activeFraction integrates the rootkit's active time over the run.
func activeFraction(rootkit *attack.Rootkit, rig *Rig) float64 {
	total := rig.Engine.Now()
	if total == 0 {
		return 0
	}
	var active time.Duration
	var since simclock.Time // valid while on
	on := false
	for _, tr := range rootkit.Transitions() {
		if tr.State == attack.RootkitActive {
			if !on {
				since, on = tr.At, true
			}
		} else if on {
			active += tr.At.Sub(since)
			on = false
		}
	}
	if on {
		active += total.Sub(since)
	}
	return active.Seconds() / total.Duration().Seconds()
}
