package hw

import (
	"errors"
	"fmt"

	"satin/internal/simclock"
)

// ErrSecurePrivilege is returned when modeled normal-world software attempts
// to access a secure-only register. This is the hardware property SATIN's
// self-activation module relies on: the normal world can neither read the
// next wake-up time nor disarm the introspection timer.
var ErrSecurePrivilege = errors.New("hw: register requires secure world privilege")

// SecureTimer models one core's private secure physical timer: the
// CNTPS_CTL_EL1 control register and CNTPS_CVAL_EL1 compare register of
// ARMv8-A. When the timer is enabled and the shared physical counter
// (CNTPCT_EL0, which in this simulation is the virtual clock itself) reaches
// the compare value, the timer raises the secure timer PPI for its core.
type SecureTimer struct {
	core    *Core
	engine  *simclock.Engine
	gic     *GIC
	enabled bool
	cval    simclock.Time
	// pending is the armed fire event, named name; it is a claimed event
	// (see arm), so a checkpoint captures it.
	pending simclock.Handle
	name    string
}

func newSecureTimer(core *Core, engine *simclock.Engine, gic *GIC) *SecureTimer {
	return &SecureTimer{core: core, engine: engine, gic: gic, name: fmt.Sprintf("secure-timer-core%d", core.id)}
}

// WriteCVAL sets the compare register (CNTPS_CVAL_EL1). Only the secure
// world may write it.
func (t *SecureTimer) WriteCVAL(w World, at simclock.Time) error {
	if w != SecureWorld {
		return ErrSecurePrivilege
	}
	t.cval = at
	t.rearm()
	return nil
}

// ReadCVAL reads the compare register. Only the secure world may read it.
func (t *SecureTimer) ReadCVAL(w World) (simclock.Time, error) {
	if w != SecureWorld {
		return 0, ErrSecurePrivilege
	}
	return t.cval, nil
}

// WriteCTL enables or disables the timer (CNTPS_CTL_EL1.ENABLE). Only the
// secure world may write it.
func (t *SecureTimer) WriteCTL(w World, enable bool) error {
	if w != SecureWorld {
		return ErrSecurePrivilege
	}
	t.enabled = enable
	t.rearm()
	return nil
}

// ReadCTL reads the enable bit. Only the secure world may read it.
func (t *SecureTimer) ReadCTL(w World) (bool, error) {
	if w != SecureWorld {
		return false, ErrSecurePrivilege
	}
	return t.enabled, nil
}

// rearm reconciles the pending fire event with the current register state.
func (t *SecureTimer) rearm() {
	t.pending.Cancel()
	if !t.enabled {
		return
	}
	at := t.cval
	if at < t.engine.Now() {
		// Condition already met: the interrupt asserts immediately,
		// exactly as the architecture specifies for CNTPCT >= CVAL.
		at = t.engine.Now()
	}
	t.arm(at)
}

// arm schedules the fire event at `at` under the timer's claim, the one
// place it is scheduled: rearm calls it, and so does a checkpoint restore
// re-arming the captured fire (RearmTimer).
func (t *SecureTimer) arm(at simclock.Time) {
	claim := simclock.Claim{Owner: ClaimOwnerTimer, Key: int64(t.core.id), Name: t.name, When: at}
	t.pending = t.engine.Arm(claim, func() {
		// Level-triggered: the handler is expected to disable the timer
		// or move CVAL forward; we model a single assertion per arm.
		t.gic.Raise(IntSecureTimer, t.core.id)
	})
}
