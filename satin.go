// Package satin is a simulation-based reproduction of "SATIN: A Secure and
// Trustworthy Asynchronous Introspection on Multi-Core ARM Processors"
// (DSN 2019).
//
// It provides a deterministic discrete-event model of the paper's testbed —
// an ARM Juno r1 board with TrustZone, a Linux-like rich OS, and the timing
// behavior the paper measured — plus full implementations of both sides of
// the paper's arms race:
//
//   - the TZ-Evader evasion attack (user-level prober, KProber-I/II, the
//     GETTID rootkit, and hide/reinstall logic racing the introspection);
//   - the baseline asynchronous introspection TZ-Evader defeats;
//   - SATIN itself (divide-and-conquer integrity checking, secure-timer
//     self-activation, wake-up time queue, multi-core collaboration).
//
// A ScenarioSpec describes one testbed configuration and FromSpec
// assembles it as a Scenario; everything it returns is driven by a virtual
// clock, so simulated hours run in real-time seconds and every run is
// reproducible from its seed.
//
//	s := satin.ScenarioSpec{
//	    Version: satin.ScenarioSpecVersion,
//	    Seed:    42,
//	    Defense: satin.SpecDefense{Kind: "satin"},
//	    Run:     satin.SpecRun{For: satin.SpecDuration(10 * time.Minute)},
//	}
//	sc, err := satin.FromSpec(s)
//	...
//	satin.DriveSpec(sc, s) // ten virtual minutes
//	fmt.Println(sc.SATIN().Alarms())
package satin

import (
	"context"
	"fmt"
	"io"
	"time"

	"satin/internal/attack"
	"satin/internal/core"
	"satin/internal/experiment"
	"satin/internal/faultinject"
	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/profile"
	"satin/internal/richos"
	"satin/internal/runner"
	"satin/internal/simclock"
	"satin/internal/spec"
	"satin/internal/syncguard"
	"satin/internal/trace"
	"satin/internal/trustzone"
)

// Re-exported defense types (the paper's contribution).
type (
	// Round is one completed SATIN introspection round.
	Round = core.Round
	// Alarm is a detected integrity violation.
	Alarm = core.Alarm
	// SATIN is the secure-world introspection service.
	SATIN = core.SATIN
	// Reporter signs alarms with the secure-world key (§V-B's "raise an
	// alarm to the server side").
	Reporter = core.Reporter
	// SignedAlarm is one authenticated alarm record.
	SignedAlarm = core.SignedAlarm
)

// NewReporter creates an alarm reporter with the given device key.
func NewReporter(key []byte) (*Reporter, error) { return core.NewReporter(key) }

// VerifyAlarm checks a signed alarm record against the device key.
func VerifyAlarm(key []byte, rec SignedAlarm) bool { return core.VerifyAlarm(key, rec) }

// VerifySequence checks a batch of reports for gaps (suppressed alarms).
func VerifySequence(from uint64, recs []SignedAlarm) error { return core.VerifySequence(from, recs) }

// Re-exported attack types.
type (
	// Rootkit is the paper's sample GETTID syscall-table hijack.
	Rootkit = attack.Rootkit
	// Evader is the full-fidelity (thread-level) TZ-Evader.
	Evader = attack.Evader
	// FastEvader is the calibrated O(1)-per-event TZ-Evader for long runs.
	FastEvader = attack.FastEvader
)

// Re-exported substrate types.
type (
	// Platform is the simulated Juno r1 board.
	Platform = hw.Platform
	// Image is the booted kernel image.
	Image = mem.Image
	// OS is the simulated rich OS.
	OS = richos.OS
	// Monitor is the EL3 secure monitor.
	Monitor = trustzone.Monitor
	// Checker is the secure-world memory checker both SATIN and the
	// baseline hash through.
	Checker = introspect.Checker
	// Baseline is the pre-SATIN periodic full-kernel checker.
	Baseline = introspect.Baseline
	// BaselineOutcome is one completed baseline round.
	BaselineOutcome = introspect.Outcome
	// Engine is the discrete-event engine driving everything.
	Engine = simclock.Engine
	// Timeline is a merged, time-ordered event stream of a run.
	Timeline = trace.Timeline
	// TimelineEvent is one Timeline entry.
	TimelineEvent = trace.Event
	// SyncGuard is the synchronous introspection of §VII-A.
	SyncGuard = syncguard.Guard
	// InterruptFlood is the §V-B interference attack.
	InterruptFlood = attack.InterruptFlood
)

// Re-exported fault-injection types. A FaultPlan describes deterministic
// hardware-timing perturbations — rate jitter, DVFS steps, core hotplug,
// interrupt delay/drop, world-switch spikes — that compose over a scenario
// through its spec's faults string. The empty plan installs nothing and a
// run stays byte-identical to an unperturbed one.
type (
	// FaultPlan describes what to inject; see faultinject.Plan.
	FaultPlan = faultinject.Plan
	// FaultInjector is an installed plan; Scenario.Faults returns it.
	FaultInjector = faultinject.Injector
)

// ParseFaultPlan builds a FaultPlan from the `-faults` spec grammar
// (e.g. "scale:1.5" or "jitter:0.2;dvfs:at=30s,factor=0.5;hotplug:core=5,off=1m,on=2m").
func ParseFaultPlan(spec string) (FaultPlan, error) { return faultinject.ParsePlan(spec) }

// Re-exported observability types. Every Scenario carries a live event bus
// and a metrics registry (a spec's "observability": false turns them off):
// components publish trace events as they happen and keep named counters,
// gauges, and fixed-bucket histograms. Everything is driven by virtual time, so a
// fixed-seed run's bus stream and metrics snapshot are byte-identical across
// runs and worker counts.
type (
	// Bus is the live event bus; Subscribe receives every trace event as
	// it is published.
	Bus = obs.Bus
	// MetricsSnapshot is a point-in-time copy of every metric, sorted by
	// name.
	MetricsSnapshot = obs.Snapshot
	// MetricRow is one metric in a snapshot.
	MetricRow = obs.Row
	// MetricBucket is one histogram bucket in a snapshot row.
	MetricBucket = obs.Bucket
	// StreamSink writes each published event to a writer as it happens
	// (the engine behind `satin-sim -trace-out`).
	StreamSink = obs.StreamSink
	// ExportFormat selects a streaming export encoding.
	ExportFormat = obs.Format
)

// Streaming export formats.
const (
	// ExportJSONL writes one JSON object per event per line.
	ExportJSONL = obs.JSONL
	// ExportCSV writes a header then one row per event.
	ExportCSV = obs.CSV
)

// NewStreamSink builds a streaming event sink over w; subscribe its OnEvent
// to a scenario's Bus, then Flush when the run ends.
func NewStreamSink(w io.Writer, format ExportFormat) (*StreamSink, error) {
	return obs.NewStreamSink(w, format)
}

// Re-exported profiling types. A spec's "profiling": true attaches a causal
// span profiler: world switches, secure dispatches, introspection rounds,
// per-chunk hash walks, and evader evasion windows become typed intervals
// of virtual time with parent/child causality links, assembled
// deterministically as the run executes. The profiler never publishes to
// the bus, so attaching it cannot change a run's event stream; detached
// (the default), the emit points cost one nil check each.
type (
	// Profiler is the span collector; Scenario.Profiler returns it.
	Profiler = profile.Profiler
	// ProfileSpan is one typed interval of virtual time.
	ProfileSpan = profile.Span
	// ProfileSpanKind classifies a span.
	ProfileSpanKind = profile.SpanKind
	// ProfileSummary is the derived per-core attribution view; summaries
	// from sweep seeds merge deterministically via MergeProfiles.
	ProfileSummary = profile.Summary
	// TraceDiffReport is the outcome of aligning two trace exports.
	TraceDiffReport = trace.DiffReport
)

// MergeProfiles folds per-seed profile summaries into one, in the order
// given (pass them seed-ordered for deterministic output).
func MergeProfiles(sums []ProfileSummary) ProfileSummary { return profile.Merge(sums) }

// DiffTraces aligns two exported event streams by (kind, core, area) and
// reports first divergence plus per-group latency deltas — the regression
// gate behind `satin-sim -diff`.
func DiffTraces(a, b []TimelineEvent) TraceDiffReport { return trace.Diff(a, b) }

// CheckTraceOrdered verifies a stream's timestamps are non-decreasing, as
// any live export must be; `satin-sim -lint-trace` applies it after parsing.
func CheckTraceOrdered(events []TimelineEvent) error { return trace.CheckOrdered(events) }

// ValidateChromeTrace parses r as Chrome trace_event JSON and checks the
// invariants Perfetto's importer relies on (structure, required fields,
// per-track span nesting). It returns the number of events checked.
func ValidateChromeTrace(r io.Reader) (int, error) { return profile.ValidateChromeTrace(r) }

// ReadTraceJSONL parses a JSONL event stream written by a StreamSink —
// the validation half of the export, used by `satin-sim -lint-trace` and
// the CI smoke check.
func ReadTraceJSONL(r io.Reader) ([]TimelineEvent, error) { return obs.ReadJSONL(r) }

// Multi-seed sweep types. A single Scenario run is one Monte Carlo sample
// of a timing race; a Sweep reruns the same scenario across independent
// seeds on a worker pool and aggregates per-seed metrics into
// distributions, merged in seed order so output is byte-identical for any
// worker count.
type (
	// Sweep is the deterministic aggregate of a multi-seed run.
	Sweep = runner.Sweep
	// SweepMetrics is one seed's named measurements, in report order.
	SweepMetrics = runner.Metrics
	// SweepSample is one named measurement.
	SweepSample = runner.Sample
	// SweepFailure records a seed whose trial errored or panicked.
	SweepFailure = runner.Failure
)

// RunSeeds runs trial for seeds baseSeed..baseSeed+seeds-1 across up to
// `workers` goroutines (0 means GOMAXPROCS) and aggregates the per-seed
// metrics. Each trial typically builds its own Scenario from its seed —
// scenarios are single-threaded internally, so trials are embarrassingly
// parallel. A trial that errors or panics becomes a Failure in the sweep
// rather than aborting it. The trial is the caller's closure, so this runs
// on the runner's pool, not as a campaign (which executes only runs that
// data describes). With tmpl a ScenarioSpec running SATIN:
//
//	sw, err := satin.RunSeeds("detection", 1, 32, 0, func(seed uint64) (satin.SweepMetrics, error) {
//	    s := satin.InstantiateSpec(tmpl, seed)
//	    sc, err := satin.FromSpec(s)
//	    if err != nil { return nil, err }
//	    satin.DriveSpec(sc, s)
//	    return satin.SweepMetrics{}.Add("alarms", float64(len(sc.SATIN().Alarms()))), nil
//	})
func RunSeeds(name string, baseSeed uint64, seeds, workers int, trial func(seed uint64) (SweepMetrics, error)) (*Sweep, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("satin: sweep %q needs at least 1 seed, got %d", name, seeds)
	}
	results, err := runner.Run(context.Background(), seeds, workers, func(_ context.Context, i int) (SweepMetrics, error) {
		return trial(baseSeed + uint64(i))
	})
	if err != nil {
		return nil, fmt.Errorf("satin: sweep %q: %w", name, err)
	}
	sw := runner.NewSweep(name)
	for _, r := range results {
		sw.Add(baseSeed+uint64(r.Index), r.Value, r.Err)
	}
	return sw, nil
}

// DefaultThreshold is the paper's operational probing threshold (1.8e-3 s).
const DefaultThreshold = 1800 * time.Microsecond

// Scenario is a fully assembled testbed: platform, monitor, kernel image,
// rich OS, and optionally SATIN, a baseline checker, and an evader.
type Scenario struct {
	seed    uint64
	engine  *simclock.Engine
	plat    *hw.Platform
	image   *mem.Image
	monitor *trustzone.Monitor
	os      *richos.OS
	checker *introspect.Checker

	satin      *core.SATIN
	baseline   *introspect.Baseline
	rootkit    *attack.Rootkit
	fastEvader *attack.FastEvader
	evader     *attack.Evader
	guard      *syncguard.Guard
	flood      *attack.InterruptFlood
	injector   *faultinject.Injector

	bus      *obs.Bus
	reg      *obs.Registry
	timeline *trace.Timeline
	prof     *profile.Profiler

	// bootGens is the per-page write-generation baseline captured when
	// construction finished: boot fill, guard protections, and the initial
	// rootkit install have all landed. A checkpoint's copy-on-write memory
	// capture stores exactly the pages whose generation has moved since
	// (see checkpoint.go).
	bootGens []uint64
}

// newScenario assembles and boots the testbed the canonical spec c
// describes; FromSpec is its public form. It builds the kernel image from
// boot when boot is not nil, instead of booting it from the seed: the boot
// state of the prefix an in-process fork resumes from, or of an earlier
// member of the same campaign group, which has already filled the kernel
// and hashed its golden table (see experiment.NewRigFrom, which refuses one
// booted from another seed). Every random stream derives from c.Seed at a
// fixed offset, and the assembly order below is part of what the goldens
// pin.
func newScenario(c ScenarioSpec, boot *mem.BootState) (*Scenario, error) {
	rig, err := experiment.NewRigFrom(c.Seed, boot)
	if err != nil {
		return nil, err
	}
	plat, image, osim, checker := rig.Plat, rig.Image, rig.OS, rig.Checker
	checker.SetHashCache(c.HashCacheEnabled())
	sc := &Scenario{
		seed:     c.Seed,
		engine:   rig.Engine,
		plat:     plat,
		image:    image,
		monitor:  rig.Monitor,
		os:       osim,
		checker:  checker,
		timeline: &trace.Timeline{},
	}
	routing := trustzone.NonPreemptive
	if c.Routing == spec.RoutingPreemptive {
		routing = trustzone.Preemptive
	}
	sc.monitor.SetRouting(routing)
	if c.ObservabilityEnabled() {
		sc.bus = obs.NewBus()
		sc.reg = obs.NewRegistry()
		sc.bus.Subscribe(sc.timeline.Observe)
		sc.monitor.Observe(sc.bus, sc.reg)
		sc.checker.Observe(sc.reg)
	}
	if c.Guard != spec.GuardOff {
		sc.guard = syncguard.New(osim)
		if err := sc.guard.Install(); err != nil {
			return nil, err
		}
	}

	// Attack side first (the persistent threat predates the defense). An
	// un-bypassed guard traps the rootkit's install, so the build fails
	// there: the guard working as intended.
	if ev := c.Evader; ev.Kind != spec.EvaderNone {
		sleep, threshold := time.Duration(ev.Sleep), time.Duration(ev.Threshold)
		if ev.RootkitAddr != nil {
			sc.rootkit = attack.NewRootkitAt(osim, image, *ev.RootkitAddr)
		} else {
			sc.rootkit = attack.NewRootkit(osim, image)
		}
		if c.Guard == spec.GuardBypassed {
			if _, err := syncguard.APFlipExploit(image, sc.rootkit.TargetAddr(), attack.TraceBytes); err != nil {
				return nil, err
			}
			// The flipped PTE is now part of the attack surface; golden
			// hashes were captured before, so area 17 will flag it.
		}
		switch ev.Kind {
		case spec.EvaderFast:
			fe, err := attack.NewFastEvader(plat, image, sc.rootkit, sleep, threshold, c.Seed+4)
			if err != nil {
				return nil, err
			}
			fe.Observe(sc.bus, sc.reg)
			if err := fe.Start(); err != nil {
				return nil, err
			}
			sc.fastEvader = fe
		case spec.EvaderThread:
			buf, err := attack.NewReportBuffer(plat.NumCores(), attack.JunoCrossCoreNoise(), c.Seed+5)
			if err != nil {
				return nil, err
			}
			te, err := attack.NewEvader(osim, sc.rootkit, buf, attack.EvaderConfig{
				Prober: attack.ProberConfig{Kind: attack.KProberII, Sleep: sleep, Threshold: threshold},
				Seed:   c.Seed + 6,
			})
			if err != nil {
				return nil, err
			}
			te.Observe(sc.bus, sc.reg)
			if err := te.Start(); err != nil {
				return nil, err
			}
			sc.evader = te
		}
	}

	// Defense side.
	switch c.Defense.Kind {
	case spec.DefenseSATIN:
		sat := c.Defense.SATIN
		seed := sat.Seed
		if seed == 0 {
			// Zero derives from the root seed, so sweep templates follow
			// InstantiateSpec's per-trial seed.
			seed = c.Seed + 2
		}
		s, err := core.NewJuno(plat, sc.monitor, image, checker, core.Config{
			Tgoal:            time.Duration(sat.Tgoal),
			Technique:        technique(sat.Technique),
			RandomDeviation:  *sat.RandomDeviation,
			FixedCore:        *sat.FixedCore,
			MaxRounds:        sat.MaxRounds,
			AreaBound:        sat.AreaBound,
			AllowUnsafeAreas: sat.AllowUnsafeAreas,
			Seed:             seed,
		})
		if err != nil {
			return nil, err
		}
		s.Observe(sc.bus, sc.reg)
		if err := s.Start(); err != nil {
			return nil, err
		}
		sc.satin = s
	case spec.DefenseBaseline:
		bl := c.Defense.Baseline
		sel := introspect.RandomCore
		if bl.Selection == spec.SelectFixed {
			sel = introspect.FixedCore
		}
		b, err := introspect.NewBaseline(plat, sc.monitor, checker, image, c.Seed+7, introspect.BaselineConfig{
			Period:          time.Duration(bl.Period),
			RandomizePeriod: bl.RandomizePeriod,
			Selection:       sel,
			Core:            bl.Core,
			Technique:       technique(bl.Technique),
			MaxRounds:       bl.MaxRounds,
		})
		if err != nil {
			return nil, err
		}
		b.Observe(sc.bus, sc.reg)
		if err := b.Start(); err != nil {
			return nil, err
		}
		sc.baseline = b
	}
	if c.Workload != nil && c.Workload.FloodRate > 0 {
		fl, err := attack.NewInterruptFlood(plat, c.Workload.FloodRate, nil)
		if err != nil {
			return nil, err
		}
		if err := fl.Start(); err != nil {
			return nil, err
		}
		sc.flood = fl
	}
	// Fault injection composes last, over the fully assembled testbed, so
	// hotplug re-routing finds SATIN already subscribed and jitter rescales
	// the final calibrated rates. An empty plan installs nothing, so the run
	// is byte-identical to one without faults.
	if c.Faults != "" {
		plan, err := faultinject.ParsePlan(c.Faults)
		if err != nil {
			return nil, err
		}
		if !plan.Empty() {
			inj, err := faultinject.Install(plan, plat, sc.monitor, c.Seed+8, sc.bus, sc.reg)
			if err != nil {
				return nil, err
			}
			sc.injector = inj
		}
	}
	// Profiling attaches last, over the fully assembled testbed: every
	// component gets the same handle, and the profiler subscribes to the bus
	// (never publishes), so the event stream and goldens are untouched.
	if c.ProfilingEnabled() {
		p := profile.NewProfiler(plat.NumCores())
		p.Observe(sc.reg)
		if sc.bus != nil {
			sc.bus.Subscribe(p.OnEvent)
		}
		sc.monitor.SetProfiler(p)
		sc.checker.SetProfiler(p)
		if sc.satin != nil {
			sc.satin.SetProfiler(p)
		}
		if sc.fastEvader != nil {
			sc.fastEvader.SetProfiler(p)
		}
		if sc.evader != nil {
			sc.evader.SetProfiler(p)
		}
		sc.prof = p
	}
	sc.bootGens = image.Mem().PageGens()
	return sc, nil
}

// technique maps a canonical spec's technique name to the checker's.
func technique(v string) introspect.Technique {
	if v == spec.TechniqueSnapshot {
		return introspect.SnapshotHash
	}
	return introspect.DirectHash
}

// Run advances virtual time by d.
func (s *Scenario) Run(d time.Duration) { s.engine.RunFor(d) }

// RunToCompletion drains every pending event. Use it only with a bounded
// defense (max_rounds set) and WITHOUT the thread-level evader or a flood:
// perpetual threads schedule events forever, so a scenario containing them
// never drains — drive those with Run instead. DriveSpec follows the spec's
// run section, which the spec validates against exactly these rules.
func (s *Scenario) RunToCompletion() { s.engine.Run() }

// Now reports the current virtual time since boot.
func (s *Scenario) Now() time.Duration { return s.engine.Now().Duration() }

// Engine returns the discrete-event engine.
func (s *Scenario) Engine() *Engine { return s.engine }

// Platform returns the simulated board.
func (s *Scenario) Platform() *Platform { return s.plat }

// Image returns the kernel image.
func (s *Scenario) Image() *Image { return s.image }

// OS returns the rich OS.
func (s *Scenario) OS() *OS { return s.os }

// Monitor returns the secure monitor.
func (s *Scenario) Monitor() *Monitor { return s.monitor }

// Checker returns the secure-world memory checker, for inspecting the
// incremental hash cache (CacheStats, HashCacheEnabled).
func (s *Scenario) Checker() *Checker { return s.checker }

// SATIN returns the SATIN service, or nil if not installed.
func (s *Scenario) SATIN() *SATIN { return s.satin }

// Baseline returns the baseline checker, or nil if not installed.
func (s *Scenario) Baseline() *Baseline { return s.baseline }

// Rootkit returns the rootkit, or nil if no evader was installed.
func (s *Scenario) Rootkit() *Rootkit { return s.rootkit }

// FastEvader returns the fast evader, or nil.
func (s *Scenario) FastEvader() *FastEvader { return s.fastEvader }

// ThreadEvader returns the thread-level evader, or nil.
func (s *Scenario) ThreadEvader() *Evader { return s.evader }

// Guard returns the synchronous guard, or nil.
func (s *Scenario) Guard() *SyncGuard { return s.guard }

// Flood returns the interrupt flood, or nil.
func (s *Scenario) Flood() *InterruptFlood { return s.flood }

// Faults returns the installed fault injector, or nil when the scenario's
// spec has no fault plan (or an empty one).
func (s *Scenario) Faults() *FaultInjector { return s.injector }

// Profiler returns the causal span profiler, or nil when the scenario's
// spec leaves profiling off. A nil Profiler is still a valid zero-cost
// handle: every method on it is a no-op.
func (s *Scenario) Profiler() *Profiler { return s.prof }

// Bus returns the live event bus, or nil when the scenario's spec sets
// "observability": false. Subscribe before driving the scenario to stream
// every trace event as it happens:
//
//	sink, _ := satin.NewStreamSink(f, satin.ExportJSONL)
//	sc.Bus().Subscribe(sink.OnEvent)
func (s *Scenario) Bus() *Bus { return s.bus }

// Timeline returns the run's time-ordered event stream — world entries,
// SATIN rounds and alarms, baseline outcomes, and evader reactions. The
// timeline is filled live by a bus subscription installed at construction,
// so it can be inspected mid-run; it is empty when the scenario's spec sets
// "observability": false.
func (s *Scenario) Timeline() *trace.Timeline { return s.timeline }

// Metrics snapshots every metric the run has accumulated: counters, gauges,
// and histograms from the monitor (world-switch latency), SATIN (round
// durations per area, alarms, queue depth), the checker (bytes hashed and
// copied), the baseline, any evader, plus the engine's own gauges
// (virtual time, events dispatched, pending events), refreshed at snapshot
// time. Returns an empty snapshot when the spec sets "observability": false.
func (s *Scenario) Metrics() MetricsSnapshot {
	if s.reg == nil {
		return MetricsSnapshot{}
	}
	s.reg.Gauge("engine.virtual_time_ns").Set(int64(s.engine.Now()))
	s.reg.Gauge("engine.events_dispatched").Set(int64(s.engine.Dispatched()))
	s.reg.Gauge("engine.pending_events").Set(int64(s.engine.Pending()))
	return s.reg.Snapshot()
}

// Report is a Scenario's end-of-run summary: what the defense and the
// attacker each did, the detection verdict, and the final metrics snapshot.
// The cmds and examples render their output from it.
type Report struct {
	// Seed is the scenario's root seed.
	Seed uint64
	// Elapsed is the virtual time since boot.
	Elapsed time.Duration

	// SATINRounds, FullScans, and Alarms summarize SATIN (zero when the
	// scenario runs the baseline or no defense).
	SATINRounds int
	FullScans   int
	Alarms      int

	// BaselineRounds and BaselineClean summarize the baseline checker.
	BaselineRounds int
	BaselineClean  int

	// Evader reaction counts, from whichever evader is installed.
	Suspects   int
	Hides      int
	CoreBacks  int
	Reinstalls int

	// RootkitState names the rootkit's final state ("" without an evader).
	RootkitState string

	// Detected reports the defense's verdict: SATIN raised at least one
	// alarm, or the baseline saw at least one dirty round.
	Detected bool

	// Metrics is the end-of-run snapshot (empty when observability is off).
	Metrics MetricsSnapshot
}

// Report summarizes the run so far.
func (s *Scenario) Report() Report {
	r := Report{Seed: s.seed, Elapsed: s.Now(), Metrics: s.Metrics()}
	if s.satin != nil {
		r.SATINRounds = len(s.satin.Rounds())
		r.FullScans = s.satin.FullScans()
		r.Alarms = len(s.satin.Alarms())
	}
	if s.baseline != nil {
		for _, out := range s.baseline.Outcomes() {
			r.BaselineRounds++
			if out.Clean {
				r.BaselineClean++
			}
		}
	}
	r.Detected = r.Alarms > 0 || r.BaselineRounds > r.BaselineClean
	var evaderEvents []attack.Event
	if s.fastEvader != nil {
		evaderEvents = s.fastEvader.Events()
	} else if s.evader != nil {
		evaderEvents = s.evader.Events()
	}
	for _, e := range evaderEvents {
		switch e.Kind {
		case attack.EventSuspect:
			r.Suspects++
		case attack.EventHidden:
			r.Hides++
		case attack.EventCoreBack:
			r.CoreBacks++
		case attack.EventReinstalled:
			r.Reinstalls++
		}
	}
	if s.rootkit != nil {
		r.RootkitState = s.rootkit.State().String()
	}
	return r
}
