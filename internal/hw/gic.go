package hw

import (
	"fmt"
	"math/bits"
)

// IntID identifies an interrupt line. The two lines the paper's mechanisms
// use are private per-core peripherals (PPIs) with their conventional GIC
// numbers.
type IntID int

// Interrupt lines modeled on the platform.
const (
	// IntSecureTimer is the per-core secure physical timer PPI. It belongs
	// to the secure interrupt group: the GIC always routes it to the EL3
	// monitor, even when the core is executing in the normal world — the
	// first routing requirement of §II-B.
	IntSecureTimer IntID = 29
	// IntNSTimer is the per-core non-secure physical timer PPI that drives
	// the rich OS scheduling tick.
	IntNSTimer IntID = 30
	// IntSGIFlood is a software-generated interrupt (SGI) line the
	// interrupt-flood attack uses: a compromised rich OS can raise SGIs
	// at arbitrary rate toward any core.
	IntSGIFlood IntID = 1
)

// String names the interrupt line.
func (id IntID) String() string {
	switch id {
	case IntSecureTimer:
		return "secure-timer"
	case IntNSTimer:
		return "ns-timer"
	case IntSGIFlood:
		return "sgi-flood"
	default:
		return fmt.Sprintf("int%d", int(id))
	}
}

// Group is an interrupt security group.
type Group int

// Interrupt groups, per the ARM interrupt management framework: secure
// interrupts route to the secure world (via EL3), non-secure ones to the
// rich OS.
const (
	GroupSecure Group = iota + 1
	GroupNonSecure
)

// Handler services an interrupt on a specific core.
type Handler func(coreID int)

// numLines is how many interrupt lines the GIC models, IDs 0 through 63:
// the SGIs, the PPIs and the first SPIs. That covers every line the
// platform wires and lets a core's pending lines fit one uint64 mask.
const numLines = 64

// GIC models the TrustZone-aware interrupt controller. Routing implements
// the two requirements of §II-B:
//
//  1. Secure interrupts are always delivered to the secure handler (the EL3
//     monitor), regardless of which world the target core is in.
//  2. Non-secure interrupts are delivered to the normal-world handler when
//     the core runs in the normal world; while the core executes in the
//     secure world with SATIN's SCR_EL3.IRQ=0 configuration, they pend at
//     the GIC and are delivered when the core returns to the normal world
//     (the non-preemptive secure mode of §II-B that SATIN requires).
type GIC struct {
	handlers [numLines]Handler
	// groups[id] is line id's security group; zero means unconfigured.
	groups [numLines]Group
	cores  []*Core
	// pending[coreID] has bit id set while line id waits for delivery to
	// the core: a non-secure line while the core is in the secure world,
	// any line while it is offline. A set: hardware pends a level, not a
	// count.
	pending []uint64
	// preemptive, when set, is consulted for a non-secure interrupt
	// targeting a core in the secure world: returning true delivers the
	// interrupt immediately (the preemptive secure mode of §II-B) instead
	// of pending it. The trustzone monitor installs it when configured
	// for preemptive routing.
	preemptive func(id IntID, coreID int) bool
	// intercept, when set, sees every Raise before routing. Returning true
	// consumes the assertion: the interceptor has taken ownership and will
	// complete (or retry) delivery later via Deliver. The fault-injection
	// layer installs it to model delayed and dropped interrupts; when nil
	// (the default), Raise routes directly with zero overhead.
	intercept func(id IntID, coreID int) bool
}

// newGIC wires the controller to the platform's cores.
func newGIC(cores []*Core) *GIC {
	g := &GIC{cores: cores, pending: make([]uint64, len(cores))}
	g.groups[IntSecureTimer] = GroupSecure
	g.groups[IntNSTimer] = GroupNonSecure
	for _, c := range cores {
		c.OnWorldChange(func(c *Core, _, newWorld World) {
			if newWorld == NormalWorld {
				g.drainPending(c.id)
			}
		})
		c.OnHotplug(func(c *Core, online bool) {
			if online {
				g.drainPending(c.id)
			}
		})
	}
	return g
}

// checkLine panics unless id is one of the GIC's numLines lines: a line
// outside them is a platform assembly error.
func checkLine(id IntID) {
	if id < 0 || id >= numLines {
		panic(fmt.Sprintf("hw: interrupt line %d is outside the GIC's lines 0-%d", int(id), numLines-1))
	}
}

// Configure sets the security group of an interrupt line. The platform
// pre-configures the two timer PPIs; tests use this for synthetic lines.
func (g *GIC) Configure(id IntID, group Group) {
	checkLine(id)
	g.groups[id] = group
}

// Register installs the handler for an interrupt line, replacing any
// previous handler. The trustzone monitor registers for secure lines; the
// rich OS registers for non-secure lines.
func (g *GIC) Register(id IntID, h Handler) {
	checkLine(id)
	g.handlers[id] = h
}

// Raise asserts interrupt id targeting core coreID and routes it according
// to the rules above. Raising a line with no registered handler is a
// platform assembly error and panics. An installed fault interceptor may
// consume the assertion (modeling wire delay or a dropped edge); it then
// completes delivery through Deliver.
func (g *GIC) Raise(id IntID, coreID int) {
	checkLine(id)
	if g.intercept != nil && g.intercept(id, coreID) {
		return
	}
	g.route(id, coreID)
}

// Deliver routes interrupt id to core coreID, bypassing the fault
// interceptor. The interceptor itself uses it to complete a delayed or
// retried raise without being re-intercepted; routing rules (groups,
// secure-world pending, offline pending) still apply at delivery time.
func (g *GIC) Deliver(id IntID, coreID int) {
	checkLine(id)
	g.route(id, coreID)
}

// route delivers or pends line id, which Raise or Deliver has checked.
func (g *GIC) route(id IntID, coreID int) {
	group := g.groups[id]
	if group == 0 {
		panic(fmt.Sprintf("hw: interrupt %v raised without a configured group", id))
	}
	if !g.cores[coreID].Online() {
		// An offline core takes no interrupts in either group; the GIC
		// holds the level until the core is powered back on.
		g.pending[coreID] |= 1 << id
		return
	}
	switch group {
	case GroupSecure:
		// Secure interrupts always reach the monitor immediately.
		g.dispatch(id, coreID)
	case GroupNonSecure:
		if g.cores[coreID].World() == SecureWorld {
			if g.preemptive != nil && g.preemptive(id, coreID) {
				g.dispatch(id, coreID)
				return
			}
			g.pending[coreID] |= 1 << id
			return
		}
		g.dispatch(id, coreID)
	default:
		panic(fmt.Sprintf("hw: interrupt %v has invalid group %d", id, int(group)))
	}
}

// SetPreemptiveHook installs the preemptive-routing decision function; nil
// restores the default non-preemptive behavior (pending).
func (g *GIC) SetPreemptiveHook(fn func(id IntID, coreID int) bool) {
	g.preemptive = fn
}

// SetRaiseInterceptor installs the fault-injection interceptor consulted at
// the top of Raise; nil (the default) removes it, restoring direct routing.
func (g *GIC) SetRaiseInterceptor(fn func(id IntID, coreID int) bool) {
	g.intercept = fn
}

// PendingOn reports whether interrupt id is pending delivery on core coreID.
func (g *GIC) PendingOn(id IntID, coreID int) bool {
	checkLine(id)
	return g.pending[coreID]&(1<<id) != 0
}

func (g *GIC) dispatch(id IntID, coreID int) {
	h := g.handlers[id]
	if h == nil {
		panic(fmt.Sprintf("hw: interrupt %v raised on core %d with no handler", id, coreID))
	}
	h(coreID)
}

// drainPending delivers interrupts that pended while the core was in the
// secure world or offline. It dispatches exactly the lines pending when it
// starts, lowest ID first (GIC priority order for same-priority lines),
// clearing each just before its handler runs; a line that a handler newly
// pends waits for the next drain. The order keeps the simulation
// deterministic.
func (g *GIC) drainPending(coreID int) {
	for p := g.pending[coreID]; p != 0; p &= p - 1 {
		id := IntID(bits.TrailingZeros64(p))
		g.pending[coreID] &^= 1 << id
		g.dispatch(id, coreID)
	}
}
