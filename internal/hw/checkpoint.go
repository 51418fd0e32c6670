package hw

import (
	"fmt"
	"math/bits"

	"satin/internal/simclock"
)

// Checkpoint support. The platform's capturable state is per-core: the
// TrustZone world (which must be NormalWorld at a claimable instant), the
// online bit (which must be set — hotplug fault windows are not claimable),
// the effective rates, and the secure timer registers plus its pending fire
// event. The GIC itself carries no state at a claimable instant: pending
// interrupt sets drain synchronously when a core returns to the normal world
// or comes back online, so with every core online and in the normal world
// they are provably empty — CheckpointIdle verifies instead of serializing.

// ClaimOwnerTimer names secure-timer claims in a checkpoint.
const ClaimOwnerTimer = "hw.timer"

// TimerState is one secure timer's registers at a checkpoint.
type TimerState struct {
	Enabled bool          `json:"enabled"`
	CVAL    simclock.Time `json:"cval"`
}

// CoreState is one core's architectural state at a checkpoint.
type CoreState struct {
	Rates CoreRates  `json:"rates"`
	Timer TimerState `json:"timer"`
}

// CheckpointState captures the core's state. It fails if the core is not
// idle in the checkpoint sense (normal world, online): such instants are not
// claimable and the caller should have stepped past them.
func (c *Core) CheckpointState() (CoreState, error) {
	if c.world != NormalWorld {
		return CoreState{}, fmt.Errorf("hw: core %d is in the %v world at the checkpoint instant", c.id, c.world)
	}
	if !c.online {
		return CoreState{}, fmt.Errorf("hw: core %d is offline at the checkpoint instant", c.id)
	}
	return CoreState{
		Rates: c.rates,
		Timer: TimerState{Enabled: c.timer.enabled, CVAL: c.timer.cval},
	}, nil
}

// RestoreState overwrites the core's state with a captured one. The timer's
// pending fire event (if any) is canceled here; the claim re-arm pass
// reschedules it at its recorded instant.
func (c *Core) RestoreState(st CoreState) error {
	if err := c.SetRates(st.Rates); err != nil {
		return err
	}
	c.timer.pending.Cancel()
	c.timer.enabled = st.Timer.Enabled
	c.timer.cval = st.Timer.CVAL
	return nil
}

// RearmTimer reschedules the secure timer's fire event at the claimed
// instant, rebuilding the callback rearm would have installed.
func (c *Core) RearmTimer(claim simclock.Claim) error {
	t := c.timer
	if t.pending.Live() {
		return fmt.Errorf("hw: core %d timer already has a pending fire event", c.id)
	}
	if claim.Name != t.name {
		return fmt.Errorf("hw: core %d timer claim names %q, want %q", c.id, claim.Name, t.name)
	}
	t.arm(claim.When)
	return nil
}

// CheckpointIdle verifies the GIC holds no pended interrupts — true by
// construction at a claimable instant, checked rather than assumed. An
// error names the lowest pended line of the first such core.
func (g *GIC) CheckpointIdle() error {
	for coreID, p := range g.pending {
		if p != 0 {
			return fmt.Errorf("hw: interrupt %v still pended on core %d at the checkpoint instant",
				IntID(bits.TrailingZeros64(p)), coreID)
		}
	}
	return nil
}
