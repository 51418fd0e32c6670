package hw

import (
	"fmt"
	"time"

	"satin/internal/simclock"
)

// PerfModel holds the calibrated timing model of the platform. The values of
// the Juno r1 preset come directly from the paper's measurements:
//
//   - WorldSwitch (Ts_switch): §IV-B1 measured the TSP dispatcher taking
//     2.38–3.60 µs to pause the normal world and enter the secure timer
//     interrupt handler, similar on A53 and A57.
//   - Per-byte rates: Table I (hash/snapshot per byte per core type) and
//     §IV-B2 (recovery of the 8-byte syscall-table entry: 5.80 ms average on
//     A53, 4.96 ms on A57, 6.13 ms worst case ⇒ per-byte rates /8).
type PerfModel struct {
	// WorldSwitch is Ts_switch: the time for the secure monitor to save the
	// normal-world context of a core and enter (or leave) the secure world.
	WorldSwitch simclock.Dist
	// Rates maps each core type to its calibrated per-byte rates.
	Rates map[CoreType]CoreRates
	// ThreadWakeLatency models the rich OS scheduler's latency between a
	// sleeping thread's timer expiring and the thread actually running on a
	// core that is free (context-switch plus runqueue work). It contributes
	// the baseline jitter of the prober's Tns_threshold.
	ThreadWakeLatency simclock.Dist
}

// Validate checks the model for internal consistency.
func (m PerfModel) Validate() error {
	if err := m.WorldSwitch.Validate(); err != nil {
		return fmt.Errorf("world switch: %w", err)
	}
	if len(m.Rates) == 0 {
		return fmt.Errorf("hw: perf model has no core rates")
	}
	for ct, r := range m.Rates {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%v rates: %w", ct, err)
		}
	}
	if err := m.ThreadWakeLatency.Validate(); err != nil {
		return fmt.Errorf("wake latency: %w", err)
	}
	return nil
}

// RatesFor returns the rates of core type ct. It panics on an unknown type,
// which always indicates a mis-assembled platform.
func (m PerfModel) RatesFor(ct CoreType) CoreRates {
	r, ok := m.Rates[ct]
	if !ok {
		panic(fmt.Sprintf("hw: no rates for core type %v", ct))
	}
	return r
}

// HashTime draws the time for a core of type ct to directly hash n bytes of
// normal-world memory from the secure world.
func (m PerfModel) HashTime(ct CoreType, n int, g *simclock.RNG) time.Duration {
	rate := m.RatesFor(ct).HashPerByte.Draw(g)
	return secondsDuration(rate * float64(n))
}

// RecoverTime draws Tns_recover, the time for the normal-world attacker on a
// core of type ct to restore n malicious bytes.
func (m PerfModel) RecoverTime(ct CoreType, n int, g *simclock.RNG) time.Duration {
	rate := m.RatesFor(ct).RecoverPerByte.Draw(g)
	return secondsDuration(rate * float64(n))
}

// SwitchTime draws Ts_switch.
func (m PerfModel) SwitchTime(g *simclock.RNG) time.Duration {
	return m.WorldSwitch.Draw(g)
}

func secondsDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// JunoR1PerfModel returns the performance model calibrated to the paper's
// Juno r1 measurements. See the PerfModel doc comment for provenance.
func JunoR1PerfModel() PerfModel {
	return PerfModel{
		WorldSwitch: simclock.Seconds(2.38e-6, 2.95e-6, 3.60e-6),
		Rates: map[CoreType]CoreRates{
			CortexA53: {
				HashPerByte:     simclock.FloatDist{Min: 9.23e-9, Avg: 1.07e-8, Max: 1.14e-8},
				SnapshotPerByte: simclock.FloatDist{Min: 9.24e-9, Avg: 1.08e-8, Max: 1.57e-8},
				// 5.80 ms average / 8 bytes, worst case 6.13 ms / 8 bytes.
				RecoverPerByte: simclock.FloatDist{Min: 6.80e-4, Avg: 7.25e-4, Max: 7.6625e-4},
			},
			CortexA57: {
				HashPerByte:     simclock.FloatDist{Min: 6.67e-9, Avg: 6.71e-9, Max: 7.50e-9},
				SnapshotPerByte: simclock.FloatDist{Min: 6.67e-9, Avg: 6.75e-9, Max: 7.83e-9},
				// 4.96 ms average / 8 bytes.
				RecoverPerByte: simclock.FloatDist{Min: 5.80e-4, Avg: 6.20e-4, Max: 6.60e-4},
			},
		},
		ThreadWakeLatency: simclock.Seconds(2e-6, 1.0e-5, 6e-5),
	}
}
