// Package faultinject is the deterministic perturbation layer: it composes
// over the assembled simulation and injects hardware-timing faults without
// touching the hot path when disabled. The SATIN paper's headline result
// (10/10 detections, §VI-B1) rests on a timing race decided by the Table I
// point estimates; real boards drift — DVFS steps, hotplug, interrupt
// latency, world-switch variance (Amacher & Schiavoni measured all four) —
// so this package lets experiments chart where the race flips.
//
// Five fault kinds are modeled, all seeded through simclock's named RNG
// streams so a faulted run stays byte-identical for any worker count:
//
//   - per-core rate jitter: each core's per-byte rates are rescaled once at
//     install by a factor drawn from [1-j, 1+j], modeling part-to-part and
//     thermal spread around the calibration;
//   - DVFS steps: scheduled frequency changes that rescale a core's
//     CoreRates mid-run through the validated hw.Core.SetRates path;
//   - core hotplug: scheduled offline/online transitions that force SATIN's
//     multi-core collaboration to re-route introspection slots;
//   - interrupt delay/drop: a hw.GIC raise interceptor that postpones or
//     drops assertions, dropped edges re-raised with a bounded retry;
//   - switch spikes: extra secure-world entry latency on a fraction of
//     trustzone.Monitor world switches.
//
// A Plan describes what to inject; an Injector (Install) wires it into a
// platform. Every injected fault is published as a trace "fault" event and
// counted in the metrics registry.
package faultinject

import (
	"fmt"
	"math"
	"time"

	"satin/internal/simclock"
)

// DVFSStep is one scheduled frequency change: at virtual time At, the
// target core's clock moves to Factor times the calibrated frequency, so
// its per-byte rates (seconds per byte) scale by 1/Factor. Factor 0.5 halves
// the clock and doubles every per-byte time. Factor must be finite and at
// least MinDVFSFactor.
type DVFSStep struct {
	At     time.Duration
	Core   int // core ID, or -1 for all cores
	Factor float64
}

// MinDVFSFactor is the floor of a DVFS step's factor: a 100× slowdown,
// which no real frequency step comes near. Far below it, stretched chunk
// times sum past the virtual clock's int64 nanoseconds. "scale:MAG" steps
// every clock to 1/(1+MAG), so the floor bounds MAG at 99.
const MinDVFSFactor = 0.01

// HotplugEvent is one scheduled hotplug transition for a core. If the core
// is executing in the secure world at At, the transition waits until it
// exits — on hardware the PSCI CPU_OFF call runs from the rich OS, which is
// not scheduled while the core is away.
type HotplugEvent struct {
	At     time.Duration
	Core   int
	Online bool
}

// IRQFaults perturbs interrupt delivery at the GIC. Each Raise is
// independently delayed with probability DelayProb or dropped with
// probability DropProb; a dropped edge is re-raised after RetryDelay, and
// after MaxRetries consecutive drops it is delivered unconditionally —
// bounded loss, so no interrupt is ever lost for good and the simulation
// cannot wedge.
type IRQFaults struct {
	DelayProb float64
	Delay     simclock.Dist
	DropProb  float64
	// RetryDelay is the backoff before a dropped edge re-asserts. Zero
	// value defaults to DefaultIRQRetryDelay.
	RetryDelay simclock.Dist
	// MaxRetries bounds consecutive drops of one assertion. Zero defaults
	// to DefaultIRQMaxRetries.
	MaxRetries int
}

// Default IRQ retry parameters, used when a plan leaves them zero.
var DefaultIRQRetryDelay = simclock.Seconds(50e-6, 100e-6, 200e-6)

// DefaultIRQMaxRetries bounds consecutive drops of one interrupt assertion.
const DefaultIRQMaxRetries = 3

func (f IRQFaults) enabled() bool { return f.DelayProb > 0 || f.DropProb > 0 }

// SwitchFaults adds entry-latency spikes to world switches: with
// probability SpikeProb a secure-world entry spends an extra draw from Spike
// in the secure dispatch path — after the core has left the normal world
// (so its reporters are already frozen) but before the payload runs. Large
// spikes therefore widen TZ-Evader's window instead of merely delaying the
// whole round.
type SwitchFaults struct {
	SpikeProb float64
	Spike     simclock.Dist
}

func (f SwitchFaults) enabled() bool { return f.SpikeProb > 0 }

// Plan describes a deterministic set of perturbations. The zero Plan
// injects nothing, and an empty plan installs nothing: runs are
// byte-identical to an uninstrumented simulation.
type Plan struct {
	// RateJitter j rescales each core's per-byte rates once at install by
	// an independent factor drawn from [1-j, 1+j] (and stretches its world
	// switches by the same factor). Must be in [0, 1).
	RateJitter float64
	DVFS       []DVFSStep
	Hotplug    []HotplugEvent
	IRQ        IRQFaults
	Switch     SwitchFaults
}

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return p.RateJitter == 0 && len(p.DVFS) == 0 && len(p.Hotplug) == 0 &&
		!p.IRQ.enabled() && !p.Switch.enabled()
}

// Validate checks the plan against a platform with numCores cores.
func (p Plan) Validate(numCores int) error {
	if p.RateJitter < 0 || p.RateJitter >= 1 || math.IsNaN(p.RateJitter) {
		return fmt.Errorf("faultinject: rate jitter %v outside [0, 1)", p.RateJitter)
	}
	for i, s := range p.DVFS {
		if s.At < 0 {
			return fmt.Errorf("faultinject: dvfs step %d at negative time %v", i, s.At)
		}
		if s.Core != -1 && (s.Core < 0 || s.Core >= numCores) {
			return fmt.Errorf("faultinject: dvfs step %d targets core %d of %d", i, s.Core, numCores)
		}
		if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("faultinject: dvfs step %d has non-positive factor %v", i, s.Factor)
		}
		if s.Factor < MinDVFSFactor {
			return fmt.Errorf("faultinject: dvfs step %d factor %v is below the floor %v", i, s.Factor, MinDVFSFactor)
		}
	}
	for i, h := range p.Hotplug {
		if h.At < 0 {
			return fmt.Errorf("faultinject: hotplug event %d at negative time %v", i, h.At)
		}
		if h.Core < 0 || h.Core >= numCores {
			return fmt.Errorf("faultinject: hotplug event %d targets core %d of %d", i, h.Core, numCores)
		}
	}
	if err := validProb("irq delay", p.IRQ.DelayProb); err != nil {
		return err
	}
	if err := validProb("irq drop", p.IRQ.DropProb); err != nil {
		return err
	}
	if p.IRQ.DelayProb+p.IRQ.DropProb > 1 {
		return fmt.Errorf("faultinject: irq delay+drop probability %v exceeds 1",
			p.IRQ.DelayProb+p.IRQ.DropProb)
	}
	if p.IRQ.DelayProb > 0 {
		if err := p.IRQ.Delay.Validate(); err != nil {
			return fmt.Errorf("faultinject: irq delay: %w", err)
		}
		if p.IRQ.Delay.Avg <= 0 {
			return fmt.Errorf("faultinject: irq delay avg %v must be positive", p.IRQ.Delay.Avg)
		}
	}
	if p.IRQ.DropProb > 0 && p.IRQ.RetryDelay != (simclock.Dist{}) {
		if err := p.IRQ.RetryDelay.Validate(); err != nil {
			return fmt.Errorf("faultinject: irq retry delay: %w", err)
		}
	}
	if p.IRQ.MaxRetries < 0 {
		return fmt.Errorf("faultinject: irq max retries %d negative", p.IRQ.MaxRetries)
	}
	if err := validProb("switch spike", p.Switch.SpikeProb); err != nil {
		return err
	}
	if p.Switch.SpikeProb > 0 {
		if err := p.Switch.Spike.Validate(); err != nil {
			return fmt.Errorf("faultinject: switch spike: %w", err)
		}
		if p.Switch.Spike.Avg <= 0 {
			return fmt.Errorf("faultinject: switch spike avg %v must be positive", p.Switch.Spike.Avg)
		}
	}
	return nil
}

func validProb(what string, p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("faultinject: %s probability %v outside [0, 1]", what, p)
	}
	return nil
}

// ScaledPlan maps a single perturbation magnitude to a plan, for sensitivity
// sweeps. Magnitude 0 is the unperturbed calibration (an empty plan); rising
// magnitudes degrade detection monotonically:
//
//   - secure entries spike an extra 2·mag to 12·mag ms in the dispatch path
//     with probability 0.15·mag (capped 0.9) — the decisive term. The spike
//     lands after the core's reporters freeze but before the checker reads a
//     byte, so once it exceeds the evader's detection-plus-recovery latency
//     (Tns_delay + Tns_recover ≈ 7 ms, Eq. 1/2) that round's trace is gone
//     before the check can see it;
//   - every core's clock drops to 1/(1+mag) of calibration (per-byte check
//     times stretch by 1+mag), charting the overhead axis;
//   - per-core jitter of ±5% per unit magnitude (capped at ±45%);
//   - interrupts delay 20–200 µs with probability 0.03·mag (capped 0.3).
func ScaledPlan(mag float64) Plan {
	if mag <= 0 {
		return Plan{}
	}
	capped := func(p, cap float64) float64 {
		if p > cap {
			return cap
		}
		return p
	}
	return Plan{
		RateJitter: capped(0.05*mag, 0.45),
		DVFS:       []DVFSStep{{At: 0, Core: -1, Factor: 1 / (1 + mag)}},
		Switch: SwitchFaults{
			SpikeProb: capped(0.15*mag, 0.9),
			Spike:     simclock.Seconds(2e-3*mag, 5e-3*mag, 12e-3*mag),
		},
		IRQ: IRQFaults{
			DelayProb: capped(0.03*mag, 0.3),
			Delay:     simclock.Seconds(20e-6, 60e-6, 200e-6),
		},
	}
}
