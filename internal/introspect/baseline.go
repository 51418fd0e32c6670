package introspect

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/simclock"
	"satin/internal/trace"
	"satin/internal/trustzone"
)

// CoreSelection says how the baseline picks the core for the next check.
type CoreSelection int

// Core selection policies.
const (
	// FixedCore always checks on one core — the configuration the paper
	// shows is easiest to probe (§IV-B2, observation 3).
	FixedCore CoreSelection = iota + 1
	// RandomCore checks on a uniformly random core each round — the
	// "state of the art" defense that TZ-Evader still beats (§IX).
	RandomCore
)

// String names the policy.
func (s CoreSelection) String() string {
	switch s {
	case FixedCore:
		return "fixed-core"
	case RandomCore:
		return "random-core"
	default:
		return fmt.Sprintf("CoreSelection(%d)", int(s))
	}
}

// BaselineConfig tunes the baseline checker.
type BaselineConfig struct {
	// Period is the time between checks (e.g. 8 s, like Samsung PKM-style
	// periodic measurement).
	Period time.Duration
	// RandomizePeriod adds a uniform deviation in [-Period, +Period] to
	// each wake-up, the "trigger the security checking randomly" defense
	// of §III-B2.
	RandomizePeriod bool
	// Selection picks the checking core.
	Selection CoreSelection
	// Core is the core used when Selection is FixedCore.
	Core int
	// Technique is the acquisition technique.
	Technique Technique
	// MaxRounds stops the checker after that many rounds; 0 means run
	// until the simulation ends.
	MaxRounds int
}

func (c BaselineConfig) validate(numCores int) error {
	if c.Period <= 0 {
		return fmt.Errorf("introspect: baseline period %v must be positive", c.Period)
	}
	switch c.Selection {
	case FixedCore:
		if c.Core < 0 || c.Core >= numCores {
			return fmt.Errorf("introspect: baseline fixed core %d outside [0, %d)", c.Core, numCores)
		}
	case RandomCore:
	default:
		return fmt.Errorf("introspect: unknown core selection %v", c.Selection)
	}
	switch c.Technique {
	case DirectHash, SnapshotHash:
	default:
		return fmt.Errorf("introspect: unknown technique %v", c.Technique)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("introspect: MaxRounds %d must be >= 0", c.MaxRounds)
	}
	return nil
}

// Outcome records one completed baseline round.
type Outcome struct {
	Round    int
	CoreID   int
	Started  simclock.Time
	Finished simclock.Time
	Sum      uint64
	// Clean is true when the hash matched the authorized value.
	Clean bool
}

// Elapsed reports the round's duration.
func (o Outcome) Elapsed() time.Duration { return o.Finished.Sub(o.Started) }

// Baseline is the pre-SATIN asynchronous introspection: a periodic
// whole-kernel integrity check running in the secure world, in the style of
// the TSP-based checker the paper builds TZ-Evader against (§IV-A). Each
// round hashes the entire static kernel in one secure-world residence of
// ~80–130 ms — the long window TZ-Evader exploits.
//
// Modeling note: when Selection is RandomCore, the baseline programs the
// *next* core's secure timer directly from the current secure context. Real
// ARMv8-A cannot write another core's timer (§V-D) — working around that
// without leaking the wake-up pattern is precisely SATIN's contribution —
// so this idealization strictly favors the baseline. TZ-Evader beats it
// anyway.
type Baseline struct {
	platform *hw.Platform
	monitor  *trustzone.Monitor
	checker  *Checker
	image    *mem.Image
	cfg      BaselineConfig
	rng      *simclock.RNG

	golden   uint64
	rounds   int
	outcomes []Outcome
	onRound  []func(Outcome)

	// Observability (nil unless Observe was called; all nil-safe).
	bus      *obs.Bus
	roundCtr *obs.Counter
	dirtyCtr *obs.Counter
}

// Observe wires the baseline into the observability layer: each outcome is
// published to bus as a round (or alarm, when dirty) trace event, and reg
// gains round/dirty counters. Either argument may be nil.
func (b *Baseline) Observe(bus *obs.Bus, reg *obs.Registry) {
	b.bus = bus
	b.roundCtr = reg.Counter("baseline.rounds")
	b.dirtyCtr = reg.Counter("baseline.dirty_rounds")
}

// NewBaseline builds the baseline checker. Call Start to arm the first
// wake-up.
func NewBaseline(p *hw.Platform, monitor *trustzone.Monitor, checker *Checker, image *mem.Image, seed uint64, cfg BaselineConfig) (*Baseline, error) {
	if err := cfg.validate(p.NumCores()); err != nil {
		return nil, err
	}
	layout := image.Layout()
	golden, err := GoldenRange(image, HashDjb2, layout.Base, layout.TotalSize())
	if err != nil {
		return nil, err
	}
	return &Baseline{
		platform: p,
		monitor:  monitor,
		checker:  checker,
		image:    image,
		cfg:      cfg,
		rng:      simclock.NewRNG(seed, "introspect.baseline"),
		golden:   golden,
	}, nil
}

// Start installs the baseline as the platform's secure service and arms the
// first wake-up.
func (b *Baseline) Start() error {
	b.monitor.SetService(b)
	return b.armNext(b.platform, b.platform.Engine().Now())
}

// Outcomes returns every completed round.
func (b *Baseline) Outcomes() []Outcome { return b.outcomes }

// OnRound registers fn to observe each completed round.
func (b *Baseline) OnRound(fn func(Outcome)) { b.onRound = append(b.onRound, fn) }

// OnSecureTimer implements trustzone.Service: one full-kernel check.
func (b *Baseline) OnSecureTimer(ctx *trustzone.Context) {
	layout := b.image.Layout()
	st := ctx.Core().SecureTimer()
	// Quiesce this core's timer while the check runs.
	if err := st.WriteCTL(hw.SecureWorld, false); err != nil {
		panic(fmt.Sprintf("introspect: secure CTL write failed: %v", err))
	}
	err := b.checker.Check(ctx, b.cfg.Technique, layout.Base, layout.TotalSize(), func(res Result) {
		out := Outcome{
			Round:    b.rounds,
			CoreID:   ctx.Core().ID(),
			Started:  res.Started,
			Finished: res.Finished,
			Sum:      res.Sum,
			Clean:    res.Sum == b.golden,
		}
		b.rounds++
		b.outcomes = append(b.outcomes, out)
		b.roundCtr.Inc()
		detail, kind := "clean", trace.KindRound
		if !out.Clean {
			detail, kind = "dirty", trace.KindAlarm
			b.dirtyCtr.Inc()
		}
		b.bus.Publish(trace.Event{At: res.Finished.Duration(), Kind: kind, Core: out.CoreID, Area: -1, Detail: detail})
		for _, fn := range b.onRound {
			fn(out)
		}
		if b.cfg.MaxRounds == 0 || b.rounds < b.cfg.MaxRounds {
			if err := b.armNext(ctx.Platform(), ctx.Now()); err != nil {
				panic(fmt.Sprintf("introspect: rearm failed: %v", err))
			}
		}
		ctx.Exit()
	})
	if err != nil {
		panic(fmt.Sprintf("introspect: baseline check failed to start: %v", err))
	}
}

// armNext programs the secure timer of the next checking core.
func (b *Baseline) armNext(p *hw.Platform, now simclock.Time) error {
	coreID := b.cfg.Core
	if b.cfg.Selection == RandomCore {
		coreID = b.rng.IntN(p.NumCores())
	}
	delay := b.cfg.Period
	if b.cfg.RandomizePeriod {
		// Uniform in [0, 2*Period): Period plus a deviation in [-P, +P).
		// The conversion rounds the inlined Float64's product, so arm64
		// cannot fuse it into the doubling's add (make fma-check).
		delay = time.Duration(float64(b.rng.Float64()) * 2 * float64(b.cfg.Period))
	}
	st := p.Core(coreID).SecureTimer()
	if err := st.WriteCVAL(hw.SecureWorld, now.Add(delay)); err != nil {
		return err
	}
	return st.WriteCTL(hw.SecureWorld, true)
}
