package attack

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/simclock"
)

// InterruptFlood is the interference attack that motivates SATIN's
// SCR_EL3.IRQ=0 requirement (§V-B): a compromised rich OS raises software-
// generated interrupts at a high rate toward every core. Under the
// non-preemptive routing SATIN configures, the flood is harmless — the
// interrupts pend while a check runs. Under preemptive routing (the OP-TEE
// style), every interrupt that lands on a checking core preempts the
// payload, stretching the check until the evader's recovery beats it.
type InterruptFlood struct {
	platform *hw.Platform
	engine   *simclock.Engine
	period   time.Duration
	cores    []int
	running  bool
	raised   int
	// tickPending is the next burst; onTick is its callback, built once so
	// a burst allocates nothing.
	tickPending simclock.Handle
	onTick      func()
}

// floodTickName names the flood's burst event and its claim.
const floodTickName = "sgi-flood"

// MaxFloodRate is the highest per-core flood rate, one burst per virtual
// nanosecond: the engine's resolution. A faster rate would round the burst
// period to zero, so every burst would re-arm at the same instant and
// virtual time would never advance.
const MaxFloodRate = 1e9

// NewInterruptFlood prepares a flood at the given per-core rate (interrupts
// per second, at most MaxFloodRate) against the listed cores (nil means
// all).
func NewInterruptFlood(p *hw.Platform, rate float64, cores []int) (*InterruptFlood, error) {
	if !(rate > 0 && rate <= MaxFloodRate) {
		return nil, fmt.Errorf("attack: flood rate %v outside (0, %g] per second", rate, float64(MaxFloodRate))
	}
	if len(cores) == 0 {
		cores = make([]int, p.NumCores())
		for i := range cores {
			cores[i] = i
		}
	}
	for _, c := range cores {
		if c < 0 || c >= p.NumCores() {
			return nil, fmt.Errorf("attack: flood core %d out of range", c)
		}
	}
	f := &InterruptFlood{
		platform: p,
		engine:   p.Engine(),
		period:   time.Duration(float64(time.Second) / rate),
		cores:    cores,
	}
	f.onTick = f.tick
	return f, nil
}

// Start configures the SGI line and begins raising interrupts. The
// attacker's own no-op handler services them in the normal world (like the
// IPI handler of a flooding kernel module).
func (f *InterruptFlood) Start() error {
	if f.running {
		return fmt.Errorf("attack: flood already running")
	}
	f.running = true
	gic := f.platform.GIC()
	gic.Configure(hw.IntSGIFlood, hw.GroupNonSecure)
	gic.Register(hw.IntSGIFlood, func(int) {})
	f.tick()
	return nil
}

// Stop halts the flood after the next pending tick.
func (f *InterruptFlood) Stop() { f.running = false }

// Raised reports how many interrupts the flood has asserted.
func (f *InterruptFlood) Raised() int { return f.raised }

func (f *InterruptFlood) tick() {
	if !f.running {
		return
	}
	for _, c := range f.cores {
		f.platform.GIC().Raise(hw.IntSGIFlood, c)
		f.raised++
	}
	f.armTick(f.engine.Now().Add(f.period))
}

// armTick schedules the next burst at `at` under the flood's claim, so a
// checkpoint captures it; a restore re-arms the captured burst here too
// (RearmTick).
func (f *InterruptFlood) armTick(at simclock.Time) {
	f.tickPending = f.engine.Arm(simclock.Claim{Owner: ClaimOwnerFlood, Key: -1, Name: floodTickName, When: at}, f.onTick)
}
