package core

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/mem"
	"satin/internal/obs"
	"satin/internal/profile"
	"satin/internal/simclock"
	"satin/internal/trace"
	"satin/internal/trustzone"
)

// minRearmGap is the earliest a core may be re-armed after finishing a
// round: comfortably past the world exit's Ts_switch (≤3.6 µs), so the next
// secure timer interrupt always finds the core back in the normal world.
const minRearmGap = 10 * time.Microsecond

// Round records one completed SATIN introspection round.
type Round struct {
	Index    int
	Area     int
	CoreID   int
	Started  simclock.Time // secure payload start (after Ts_switch)
	Finished simclock.Time
	Sum      uint64
	Clean    bool
}

// Elapsed reports the round's checking duration.
func (r Round) Elapsed() time.Duration { return r.Finished.Sub(r.Started) }

// Alarm is raised when an area's hash mismatches its authorized value —
// the signal SATIN would forward "to the server side or the device user"
// (§V-B).
type Alarm struct {
	Round int
	Area  int
	At    simclock.Time
}

// SATIN is the secure-world introspection service. It implements
// trustzone.Service: the secure monitor dispatches it whenever any core's
// secure timer fires.
type SATIN struct {
	platform *hw.Platform
	monitor  *trustzone.Monitor
	image    *mem.Image
	checker  *introspect.Checker
	cfg      Config
	rng      *simclock.RNG

	areas  []mem.Area
	golden []uint64
	tp     time.Duration

	areaSet *AreaSet
	queue   *WakeQueue
	// partIndex maps a core ID to its slot-owner index in the wake queue
	// (only participating cores have entries).
	partIndex map[int]int
	// partCores lists participating core IDs by slot-owner index — the
	// inverse of partIndex.
	partCores []int

	rounds  []Round
	alarms  []Alarm
	onRound []func(Round)
	onAlarm []func(Alarm)
	started bool

	// Hotplug re-routing state (§V-D collaboration under core unplug): when
	// a participating core goes offline, its wake-queue slot is served by
	// SMC-driven rounds on a surviving core until it returns.
	orphans   map[int]simclock.Handle // slot-owner index → pending re-routed wake
	uncovered map[int]bool            // slots stalled because every core is offline
	reroutes  int

	// Observability (nil unless Observe was called; all nil-safe).
	bus        *obs.Bus
	roundCtr   *obs.Counter
	alarmCtr   *obs.Counter
	roundHist  *obs.Histogram
	areaHists  []*obs.Histogram
	queueDepth *obs.Gauge
	rerouteCtr *obs.Counter
	// prof receives per-round spans, nested inside the monitor's
	// world-switch span on the same core track (nil unless SetProfiler was
	// called; every emit is nil-safe).
	prof *profile.Profiler
}

// RoundBuckets returns histogram bounds (ns) for per-round check durations:
// the paper's area checks land in the low milliseconds (≤1.2 MB at
// ~6.7–10.7 ns/B), so the bounds step 2 ms up to 16 ms.
func RoundBuckets() []int64 {
	return []int64{2e6, 4e6, 6e6, 8e6, 10e6, 12e6, 16e6}
}

// New assembles SATIN over the given areas. The golden hash table is
// computed from the image's pristine (trusted-boot) content. Areas must
// respect the Equation 2 bound unless cfg.AllowUnsafeAreas is set.
func New(p *hw.Platform, monitor *trustzone.Monitor, image *mem.Image, checker *introspect.Checker, areas []mem.Area, cfg Config) (*SATIN, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(p.NumCores(), len(areas)); err != nil {
		return nil, err
	}
	if !cfg.AllowUnsafeAreas {
		for _, a := range areas {
			if a.Size >= cfg.AreaBound {
				return nil, fmt.Errorf("core: %v violates the race bound of %d bytes (Equation 2); the evader would win", a, cfg.AreaBound)
			}
		}
	}
	golden, err := introspect.GoldenTable(image, introspect.HashDjb2, areas)
	if err != nil {
		return nil, err
	}
	return &SATIN{
		platform: p,
		monitor:  monitor,
		image:    image,
		checker:  checker,
		cfg:      cfg,
		rng:      simclock.NewRNG(cfg.Seed, "core.satin"),
		areas:    areas,
		golden:   golden,
		tp:       cfg.BasePeriod(len(areas)),
	}, nil
}

// NewJuno assembles SATIN with the paper's 19-area Juno partition and
// default configuration overridden by cfg.
func NewJuno(p *hw.Platform, monitor *trustzone.Monitor, image *mem.Image, checker *introspect.Checker, cfg Config) (*SATIN, error) {
	areas, err := mem.BuildAreas(image.Layout(), mem.JunoAreaGroups())
	if err != nil {
		return nil, err
	}
	return New(p, monitor, image, checker, areas, cfg)
}

// Observe wires SATIN into the observability layer: completed rounds and
// alarms are published to bus as trace events, and reg gains round/alarm
// counters, an all-areas round-duration histogram plus one per area, and a
// wake-queue depth gauge. Call before Start. Either argument may be nil.
func (s *SATIN) Observe(bus *obs.Bus, reg *obs.Registry) {
	s.bus = bus
	s.roundCtr = reg.Counter("satin.rounds")
	s.alarmCtr = reg.Counter("satin.alarms")
	s.roundHist = reg.Histogram("satin.round_ns", RoundBuckets())
	if reg != nil {
		s.areaHists = make([]*obs.Histogram, len(s.areas))
		for i := range s.areas {
			s.areaHists[i] = reg.Histogram(fmt.Sprintf("satin.round_ns[area=%02d]", i), RoundBuckets())
		}
	}
	s.queueDepth = reg.Gauge("satin.queue_pending")
	s.rerouteCtr = reg.Counter("satin.rerouted_rounds")
}

// SetProfiler attaches the causal span profiler: each round becomes a span
// from area pick to verdict, carrying the area index, nested inside the
// world switch that hosts it. Passing nil detaches.
func (s *SATIN) SetProfiler(p *profile.Profiler) { s.prof = p }

// Start performs the trusted-boot initialization: install SATIN as the
// secure service, build the wake-up queue, and program every
// participating core's secure timer with its first wake time.
func (s *SATIN) Start() error {
	if s.started {
		return fmt.Errorf("core: SATIN already started")
	}
	s.started = true
	s.monitor.SetService(s)
	s.areaSet = NewAreaSet(len(s.areas), s.rng)
	now := s.platform.Engine().Now()

	cores := s.participatingCores()
	s.partIndex = make(map[int]int, len(cores))
	for i, coreID := range cores {
		s.partIndex[coreID] = i
	}
	s.partCores = cores
	s.orphans = make(map[int]simclock.Handle)
	s.uncovered = make(map[int]bool)
	s.queue = NewWakeQueue(len(cores), s.tp, s.cfg.RandomDeviation, s.rng, now)
	for _, coreID := range cores {
		if err := s.armCore(coreID, s.queue.Next(s.partIndex[coreID], now)); err != nil {
			return err
		}
		s.platform.Core(coreID).OnHotplug(s.onHotplug)
	}
	return nil
}

// participatingCores lists the cores that take introspection turns.
func (s *SATIN) participatingCores() []int {
	if s.cfg.FixedCore >= 0 {
		return []int{s.cfg.FixedCore}
	}
	ids := make([]int, s.platform.NumCores())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// armCore writes a core's secure timer with secure privilege.
func (s *SATIN) armCore(coreID int, at simclock.Time) error {
	st := s.platform.Core(coreID).SecureTimer()
	if err := st.WriteCVAL(hw.SecureWorld, at); err != nil {
		return fmt.Errorf("core: arming core %d: %w", coreID, err)
	}
	if err := st.WriteCTL(hw.SecureWorld, true); err != nil {
		return fmt.Errorf("core: enabling core %d timer: %w", coreID, err)
	}
	return nil
}

// OnSecureTimer implements trustzone.Service: one SATIN round.
func (s *SATIN) OnSecureTimer(ctx *trustzone.Context) {
	st := ctx.Core().SecureTimer()
	// §VI-A1: stop the secure timer while the round runs.
	if err := st.WriteCTL(hw.SecureWorld, false); err != nil {
		panic(fmt.Sprintf("core: stopping secure timer: %v", err))
	}
	if s.budgetExhausted() {
		// Budget exhausted: let this core stay dormant.
		ctx.Exit()
		return
	}
	s.runRound(ctx, "", func(ctx *trustzone.Context) {
		// §V-C/§V-D: take the next wake time from the queue and restart
		// this core's own timer; then return to the normal world.
		if !s.budgetExhausted() {
			next := s.queue.Next(s.partIndex[ctx.Core().ID()], ctx.Now())
			s.queueDepth.Set(int64(s.queue.Pending()))
			// A deviation can land the assigned time in the past; fire
			// no earlier than after this round's world exit completes,
			// or the interrupt would assert while we still hold the core.
			earliest := ctx.Now().Add(minRearmGap)
			if next.Before(earliest) {
				next = earliest
			}
			if err := s.armCore(ctx.Core().ID(), next); err != nil {
				panic(err)
			}
		}
		ctx.Exit()
	})
}

// runRound performs one introspection round inside the secure context: pick
// a random unchecked area, hash it, record the verdict, then hand the
// context to after (which re-arms a timer or schedules the next re-routed
// wake, and exits the secure world). detail annotates the round's profiler
// span ("" for an ordinary timer-driven round).
func (s *SATIN) runRound(ctx *trustzone.Context, detail string, after func(*trustzone.Context)) {
	areaIdx := s.areaSet.Pick()
	area := s.areas[areaIdx]
	roundIdx := len(s.rounds)
	s.prof.Begin(profile.SpanRound, ctx.Core().ID(), areaIdx, ctx.Now().Duration(), detail)
	err := s.checker.Check(ctx, s.cfg.Technique, area.Addr, area.Size, func(res introspect.Result) {
		round := Round{
			Index:    roundIdx,
			Area:     areaIdx,
			CoreID:   ctx.Core().ID(),
			Started:  res.Started,
			Finished: res.Finished,
			Sum:      res.Sum,
			Clean:    res.Sum == s.golden[areaIdx],
		}
		s.rounds = append(s.rounds, round)
		s.prof.End(profile.SpanRound, round.CoreID, res.Finished.Duration())
		s.roundCtr.Inc()
		elapsed := int64(round.Elapsed())
		s.roundHist.Observe(elapsed)
		if s.areaHists != nil {
			s.areaHists[areaIdx].Observe(elapsed)
		}
		detail := "clean"
		if !round.Clean {
			detail = "dirty"
		}
		s.bus.Publish(trace.Event{At: res.Finished.Duration(), Kind: trace.KindRound, Core: round.CoreID, Area: areaIdx, Detail: detail})
		if !round.Clean {
			alarm := Alarm{Round: roundIdx, Area: areaIdx, At: res.Finished}
			s.alarms = append(s.alarms, alarm)
			s.alarmCtr.Inc()
			s.bus.Publish(trace.Event{At: res.Finished.Duration(), Kind: trace.KindAlarm, Core: -1, Area: areaIdx})
			for _, fn := range s.onAlarm {
				fn(alarm)
			}
		}
		for _, fn := range s.onRound {
			fn(round)
		}
		after(ctx)
	})
	if err != nil {
		panic(fmt.Sprintf("core: SATIN round failed to start: %v", err))
	}
}

// budgetExhausted reports whether the configured MaxRounds budget is spent.
func (s *SATIN) budgetExhausted() bool {
	return s.cfg.MaxRounds > 0 && len(s.rounds) >= s.cfg.MaxRounds
}

// orphanRetryGap is how long a re-routed wake waits before retrying when
// every candidate cover core is momentarily busy in the secure world.
const orphanRetryGap = 100 * time.Microsecond

// onHotplug reacts to a participating core going offline or coming back.
// Offline: park the core's secure timer (its pending wake is lost with the
// core) and migrate its wake-queue slot to SMC-driven rounds on a surviving
// core — the multi-core collaboration of §V-D continued under hotplug.
// Online: cancel the migration and restore the core's own timer.
func (s *SATIN) onHotplug(c *hw.Core, online bool) {
	owner, ok := s.partIndex[c.ID()]
	if !ok || !s.started {
		return
	}
	now := s.platform.Engine().Now()
	if !online {
		st := c.SecureTimer()
		if err := st.WriteCTL(hw.SecureWorld, false); err != nil {
			panic(fmt.Sprintf("core: parking offline core %d timer: %v", c.ID(), err))
		}
		s.bus.Publish(trace.Event{At: now.Duration(), Kind: trace.KindFault, Core: c.ID(), Area: -1, Detail: "satin: core offline, slot re-routed"})
		s.scheduleOrphan(owner)
		return
	}
	delete(s.uncovered, owner)
	if h, ok := s.orphans[owner]; ok {
		h.Cancel()
		delete(s.orphans, owner)
	}
	s.bus.Publish(trace.Event{At: now.Duration(), Kind: trace.KindFault, Core: c.ID(), Area: -1, Detail: "satin: core online, slot restored"})
	if !s.budgetExhausted() {
		if err := s.armCore(c.ID(), s.queue.Next(owner, now)); err != nil {
			panic(err)
		}
	}
	// Slots may have stalled while every participating core was offline;
	// resume their coverage now that one is back.
	s.retryUncovered()
}

// scheduleOrphan draws the offline owner's next wake from the queue and
// schedules a re-routed round for it.
func (s *SATIN) scheduleOrphan(owner int) {
	if s.budgetExhausted() {
		return
	}
	at := s.queue.Next(owner, s.platform.Engine().Now())
	s.queueDepth.Set(int64(s.queue.Pending()))
	s.armOrphan(owner, fmt.Sprintf("satin-reroute-slot%d", owner), at)
}

// armOrphan schedules owner's re-routed wake (a first wake or a retry, told
// apart by name) at `at` under SATIN's claim. It is the one place the wake is
// scheduled: a checkpoint restore re-arms a captured wake here too
// (RearmOrphan).
func (s *SATIN) armOrphan(owner int, name string, at simclock.Time) {
	claim := simclock.Claim{Owner: ClaimOwnerSATIN, Key: int64(owner), Name: name, When: at}
	s.orphans[owner] = s.platform.Engine().Arm(claim, func() { s.coverOrphan(owner) })
}

// coverOrphan runs one re-routed round for an offline owner's slot on the
// lowest-numbered available participating core, via the SMC path.
func (s *SATIN) coverOrphan(owner int) {
	delete(s.orphans, owner)
	if s.budgetExhausted() {
		return
	}
	engine := s.platform.Engine()
	retry := func() {
		s.armOrphan(owner, fmt.Sprintf("satin-reroute-retry%d", owner), engine.Now().Add(orphanRetryGap))
	}
	cover := s.pickCoverCore()
	if cover < 0 {
		if s.anyOnlineParticipant() {
			// All candidates are momentarily busy in the secure world.
			retry()
			return
		}
		// Every participating core is unplugged; onHotplug resumes this
		// slot when one returns.
		s.uncovered[owner] = true
		return
	}
	s.reroutes++
	s.rerouteCtr.Inc()
	s.bus.Publish(trace.Event{At: engine.Now().Duration(), Kind: trace.KindFault, Core: cover, Area: -1, Detail: fmt.Sprintf("satin: rerouted round for slot %d", owner)})
	// The span detail ties the rerouted round back to the fault that caused
	// it; built only when a profiler is attached so the detached path stays
	// allocation-free.
	var spanDetail string
	if s.prof.Attached() {
		spanDetail = fmt.Sprintf("rerouted slot %d", owner)
	}
	err := s.monitor.RequestSecure(cover, func(ctx *trustzone.Context) {
		s.runRound(ctx, spanDetail, func(ctx *trustzone.Context) {
			// Keep covering while the slot's own core stays offline.
			if !s.platform.Core(s.partCores[owner]).Online() {
				s.scheduleOrphan(owner)
			}
			ctx.Exit()
		})
	})
	if err != nil {
		// The cover core slipped into the secure world in the meantime.
		retry()
	}
}

// pickCoverCore returns the lowest-numbered participating core that is
// online and outside the secure world, or -1 if none qualifies right now.
func (s *SATIN) pickCoverCore() int {
	for _, coreID := range s.partCores {
		if s.platform.Core(coreID).Online() && !s.monitor.InSecure(coreID) {
			return coreID
		}
	}
	return -1
}

// anyOnlineParticipant reports whether any participating core is online.
func (s *SATIN) anyOnlineParticipant() bool {
	for _, coreID := range s.partCores {
		if s.platform.Core(coreID).Online() {
			return true
		}
	}
	return false
}

// retryUncovered resumes coverage for slots that stalled with every core
// offline, in slot order for determinism.
func (s *SATIN) retryUncovered() {
	if len(s.uncovered) == 0 {
		return
	}
	owners := make([]int, 0, len(s.uncovered))
	for owner := range s.uncovered {
		owners = append(owners, owner)
	}
	for i := 1; i < len(owners); i++ {
		for j := i; j > 0 && owners[j] < owners[j-1]; j-- {
			owners[j], owners[j-1] = owners[j-1], owners[j]
		}
	}
	for _, owner := range owners {
		delete(s.uncovered, owner)
		s.scheduleOrphan(owner)
	}
}

// ReroutedRounds reports how many rounds ran on a substitute core because
// the slot's own core was offline.
func (s *SATIN) ReroutedRounds() int { return s.reroutes }

// Rounds returns all completed rounds.
func (s *SATIN) Rounds() []Round { return s.rounds }

// Alarms returns all raised alarms.
func (s *SATIN) Alarms() []Alarm { return s.alarms }

// OnRound registers an observer for completed rounds.
func (s *SATIN) OnRound(fn func(Round)) { s.onRound = append(s.onRound, fn) }

// OnAlarm registers an observer for alarms.
func (s *SATIN) OnAlarm(fn func(Alarm)) { s.onAlarm = append(s.onAlarm, fn) }

// Areas returns the introspection areas.
func (s *SATIN) Areas() []mem.Area { return s.areas }

// BasePeriod returns tp.
func (s *SATIN) BasePeriod() time.Duration { return s.tp }

// FullScans reports how many complete kernel passes have finished.
func (s *SATIN) FullScans() int { return len(s.rounds) / len(s.areas) }

// AreaRounds returns the rounds that checked the given area, in order.
func (s *SATIN) AreaRounds(area int) []Round {
	var out []Round
	for _, r := range s.rounds {
		if r.Area == area {
			out = append(out, r)
		}
	}
	return out
}
