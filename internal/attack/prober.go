package attack

import (
	"fmt"
	"time"

	"satin/internal/richos"
	"satin/internal/simclock"
)

// ProberKind selects the prober implementation.
type ProberKind int

// Prober implementations from the paper.
const (
	// UserProber is the user-level multi-thread prober of §III-B1:
	// ordinary CFS threads, no kernel privilege, stealthy but at the
	// mercy of the scheduler.
	UserProber ProberKind = iota + 1
	// KProberII raises the prober threads to the maximum SCHED_FIFO
	// priority (§III-C2): reliable sub-millisecond probing.
	KProberII
)

// String names the kind.
func (k ProberKind) String() string {
	switch k {
	case UserProber:
		return "user-prober"
	case KProberII:
		return "kprober-II"
	default:
		return fmt.Sprintf("ProberKind(%d)", int(k))
	}
}

// DefaultProberSleep is Tsleep = 2e-4 s, the paper's KProber-II sleep
// interval (§IV-A1); Tns_sched is assumed equal to it.
const DefaultProberSleep = 200 * time.Microsecond

// ProberConfig tunes a ThreadProber.
type ProberConfig struct {
	Kind ProberKind
	// Sleep is the interval between probing rounds of each thread
	// (Tns_sched). Defaults to DefaultProberSleep.
	Sleep time.Duration
	// Threshold is Tns_threshold: staleness beyond it flags the core as
	// having entered the secure world. The detection experiment uses the
	// paper's 1.8e-3 s (§VI-B1).
	Threshold time.Duration
	// Cores lists the cores to probe (one pinned thread each). Empty
	// means all cores.
	Cores []int
	// OnSuspect fires when a core's report goes stale past the threshold.
	OnSuspect func(core int, at simclock.Time)
	// OnRecover fires when a previously suspected core reports again.
	OnRecover func(core int, at simclock.Time)
}

func (c ProberConfig) withDefaults() ProberConfig {
	if c.Sleep == 0 {
		c.Sleep = DefaultProberSleep
	}
	return c
}

func (c ProberConfig) validate() error {
	switch c.Kind {
	case UserProber, KProberII:
	default:
		return fmt.Errorf("attack: unknown prober kind %v", c.Kind)
	}
	if c.Sleep <= 0 {
		return fmt.Errorf("attack: prober sleep %v must be positive", c.Sleep)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("attack: prober threshold %v must be >= 0", c.Threshold)
	}
	return nil
}

// ThreadProber is the full-fidelity prober: one thread pinned per probed
// core, each combining a Time Reporter and a Time Comparer exactly as in
// the paper's Figure 2. It is the ground truth against which the scalable
// models (ThresholdModel, FastEvader) are cross-validated.
type ThreadProber struct {
	os     *richos.OS
	buffer *ReportBuffer
	cfg    ProberConfig

	threads []*richos.Thread
	// suspected[c] is true while core c's report is stale past threshold.
	suspected []bool
	// clearedAt[c] debounces re-suspicion after a clear (see compare).
	clearedAt []simclock.Time

	// maxStaleness is the largest cross-core staleness any comparer
	// observed — the quantity whose per-round maximum Table II calls the
	// probing threshold.
	maxStaleness time.Duration
	observations int
}

// NewThreadProber builds the prober. Call Start to spawn its threads.
func NewThreadProber(os *richos.OS, buffer *ReportBuffer, cfg ProberConfig) (*ThreadProber, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Cores) == 0 {
		cfg.Cores = os.AllCores()
	}
	for _, c := range cfg.Cores {
		if c < 0 || c >= os.Platform().NumCores() {
			return nil, fmt.Errorf("attack: prober core %d out of range", c)
		}
	}
	return &ThreadProber{
		os:        os,
		buffer:    buffer,
		cfg:       cfg,
		suspected: make([]bool, os.Platform().NumCores()),
		clearedAt: make([]simclock.Time, os.Platform().NumCores()),
	}, nil
}

// Start spawns the per-core prober threads.
func (p *ThreadProber) Start() error {
	if len(p.threads) != 0 {
		return fmt.Errorf("attack: prober already started")
	}
	policy, prio := richos.PolicyCFS, 0
	if p.cfg.Kind == KProberII {
		// pthread_setschedparam(SCHED_FIFO,
		// sched_get_priority_max(SCHED_FIFO)), as in §IV-A1.
		policy, prio = richos.PolicyFIFO, richos.MaxRTPriority
	}
	for _, core := range p.cfg.Cores {
		core := core
		th, err := p.os.Spawn(
			fmt.Sprintf("prober-%d", core), policy, prio, []int{core},
			richos.ProgramFunc(func(tc *richos.ThreadContext) richos.Step {
				p.probeOnce(tc, core)
				return richos.Sleep(p.cfg.Sleep)
			}))
		if err != nil {
			return fmt.Errorf("attack: spawning prober on core %d: %w", core, err)
		}
		p.threads = append(p.threads, th)
	}
	return nil
}

// probeOnce is one Time Reporter + Time Comparer round on myCore.
func (p *ThreadProber) probeOnce(tc *richos.ThreadContext, myCore int) {
	now := tc.Now()
	p.buffer.Write(myCore, now, now)
	p.compare(now, myCore)
}

// compare runs the Time Comparer: check every probed peer's latest visible
// report against the threshold.
func (p *ThreadProber) compare(now simclock.Time, myCore int) {
	for _, x := range p.cfg.Cores {
		if x == myCore {
			continue
		}
		v, ok := p.buffer.Read(x, now)
		if !ok {
			continue // nothing published yet (startup)
		}
		staleness := now.Sub(v)
		p.observations++
		if staleness > p.maxStaleness {
			p.maxStaleness = staleness
		}
		if p.cfg.Threshold == 0 {
			continue // measurement mode: no suspicion logic
		}
		if staleness > p.cfg.Threshold {
			// Debounce: a delayed-visibility read right after a clear can
			// replay the stale report; genuine re-entry needs at least
			// `threshold` to re-accumulate.
			if !p.suspected[x] && now.Sub(p.clearedAt[x]) > p.cfg.Threshold {
				p.suspected[x] = true
				if p.cfg.OnSuspect != nil {
					p.cfg.OnSuspect(x, now)
				}
			}
		} else if p.suspected[x] {
			p.suspected[x] = false
			p.clearedAt[x] = now
			if p.cfg.OnRecover != nil {
				p.cfg.OnRecover(x, now)
			}
		}
	}
}

// Suspected reports whether core c is currently flagged.
func (p *ThreadProber) Suspected(c int) bool { return p.suspected[c] }

// MaxStaleness returns the largest staleness observed so far — after a
// quiet run this is the empirical Tns_threshold (§VII-B calibration).
func (p *ThreadProber) MaxStaleness() time.Duration { return p.maxStaleness }

// ResetMaxStaleness clears the running maximum, starting a new measurement
// round.
func (p *ThreadProber) ResetMaxStaleness() { p.maxStaleness = 0 }

// Observations reports how many comparisons have run.
func (p *ThreadProber) Observations() int { return p.observations }

// SpinQuantum is the reporting period of the dedicated single-core prober:
// the reporter never sleeps, re-publishing every SpinQuantum of CPU. This
// reproduces the paper's observation that probing a single fixed core is
// ≈4x more precise than probing all cores (§IV-B2).
const SpinQuantum = 50 * time.Microsecond

// SingleCoreProber probes exactly one target core: a spinning Time Reporter
// pinned to the target and a Reporter+Comparer on an observer core
// (§IV-A1's "probe a specific core" deployment).
type SingleCoreProber struct {
	inner    *ThreadProber
	target   int
	observer int
}

// NewSingleCoreProber builds the two-thread prober.
func NewSingleCoreProber(os *richos.OS, buffer *ReportBuffer, target, observer int, cfg ProberConfig) (*SingleCoreProber, error) {
	if target == observer {
		return nil, fmt.Errorf("attack: target and observer must differ")
	}
	cfg.Cores = []int{target, observer}
	inner, err := NewThreadProber(os, buffer, cfg)
	if err != nil {
		return nil, err
	}
	return &SingleCoreProber{inner: inner, target: target, observer: observer}, nil
}

// Start spawns the spinning reporter and the observing comparer.
func (s *SingleCoreProber) Start() error {
	p := s.inner
	policy, prio := richos.PolicyCFS, 0
	if p.cfg.Kind == KProberII {
		policy, prio = richos.PolicyFIFO, richos.MaxRTPriority
	}
	// Spinning reporter on the target core.
	_, err := p.os.Spawn("spin-reporter", policy, prio, []int{s.target},
		richos.ProgramFunc(func(tc *richos.ThreadContext) richos.Step {
			now := tc.Now()
			p.buffer.Write(s.target, now, now)
			return richos.Compute(SpinQuantum)
		}))
	if err != nil {
		return fmt.Errorf("attack: spawning spin reporter: %w", err)
	}
	// Reporter+Comparer on the observer core: with Cores = {target,
	// observer}, the observer's probing round compares the target alone.
	_, err = p.os.Spawn("observer", policy, prio, []int{s.observer},
		richos.ProgramFunc(func(tc *richos.ThreadContext) richos.Step {
			p.probeOnce(tc, s.observer)
			return richos.Sleep(p.cfg.Sleep)
		}))
	if err != nil {
		return fmt.Errorf("attack: spawning observer: %w", err)
	}
	return nil
}

// MaxStaleness mirrors ThreadProber.MaxStaleness.
func (s *SingleCoreProber) MaxStaleness() time.Duration { return s.inner.maxStaleness }

// ResetMaxStaleness mirrors ThreadProber.ResetMaxStaleness.
func (s *SingleCoreProber) ResetMaxStaleness() { s.inner.maxStaleness = 0 }

// Suspected reports whether the target is flagged.
func (s *SingleCoreProber) Suspected() bool { return s.inner.suspected[s.target] }
