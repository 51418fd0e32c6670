package richos

import (
	"fmt"
	"time"

	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/simclock"
)

// Config tunes the rich OS.
type Config struct {
	// HZ is the scheduling-clock tick frequency per core. Linux configures
	// 100 <= HZ <= 1000 (§III-C1); lsk-4.4 defaults land in the middle.
	HZ int
	// CFSSlice is how long a CFS thread may run before a tick hands the
	// core to a waiting CFS peer.
	CFSSlice time.Duration
	// Seed drives the OS's scheduling-noise randomness.
	Seed uint64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{HZ: 250, CFSSlice: 6 * time.Millisecond, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HZ == 0 {
		c.HZ = d.HZ
	}
	if c.CFSSlice == 0 {
		c.CFSSlice = d.CFSSlice
	}
	return c
}

func (c Config) validate() error {
	if c.HZ < 100 || c.HZ > 1000 {
		return fmt.Errorf("richos: HZ %d outside Linux's [100, 1000]", c.HZ)
	}
	if c.CFSSlice <= 0 {
		return fmt.Errorf("richos: CFSSlice %v must be positive", c.CFSSlice)
	}
	return nil
}

// SyscallHandler is kernel code reached through the syscall table.
type SyscallHandler func(tc *ThreadContext, nr int) uint64

// IRQHandler is kernel code reached through the exception vector table.
type IRQHandler func(coreID int)

// coreState is the per-core scheduler state.
type coreState struct {
	id      int
	current *Thread
	// computeDone fires when the current thread's scheduled CPU chunk ends.
	computeDone  simclock.Handle
	computeStart simclock.Time
	computeLen   time.Duration
	// sliceStart is when the current thread was dispatched; the tick's CFS
	// round-robin check measures the slice from here.
	sliceStart  simclock.Time
	fifo        []*Thread // ready FIFO threads, (prio desc, enqueue order)
	cfs         []*Thread // ready CFS threads, picked by min vruntime
	minVruntime time.Duration
	tickArmed   bool
	inSecure    bool
	// onComputeDone and onTick are the core's chunk-end and tick callbacks,
	// built once in NewOS so neither event allocates a closure.
	onComputeDone func()
	onTick        func()
}

func (cs *coreState) readyCount() int { return len(cs.fifo) + len(cs.cfs) }

// OS is the modeled rich OS.
type OS struct {
	platform *hw.Platform
	image    *mem.Image
	cfg      Config
	rng      *simclock.RNG

	threads  []*Thread
	cores    []*coreState
	nextSeq  uint64
	crashed  bool
	crashMsg string

	irqHandlers     map[uint64]IRQHandler
	syscallHandlers map[uint64]SyscallHandler
	mmu             *mem.MMU

	onSecurePause []func(t *Thread, coreID int)
}

// NewOS boots the rich OS on the platform with the given kernel image: it
// installs the benign timer-interrupt and syscall handlers behind the
// addresses the pristine kernel image holds, and claims the non-secure
// timer interrupt from the GIC.
func NewOS(p *hw.Platform, image *mem.Image, cfg Config) (*OS, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	os := &OS{
		platform:        p,
		image:           image,
		cfg:             cfg,
		rng:             simclock.NewRNG(cfg.Seed, "richos.sched"),
		irqHandlers:     make(map[uint64]IRQHandler),
		syscallHandlers: make(map[uint64]SyscallHandler),
	}
	os.cores = make([]*coreState, p.NumCores())
	for i := range os.cores {
		cs := &coreState{id: i}
		cs.onComputeDone = func() { os.computeDone(cs) }
		cs.onTick = func() { p.GIC().Raise(hw.IntNSTimer, cs.id) }
		os.cores[i] = cs
	}

	// The benign timer-interrupt handler lives at the address the pristine
	// IRQ exception vector points to.
	layout := image.Layout()
	benignIRQ, err := image.Mem().Uint64(layout.IRQVectorAddr())
	if err != nil {
		return nil, fmt.Errorf("richos: reading IRQ vector: %w", err)
	}
	os.irqHandlers[benignIRQ] = os.KernelTick

	// Benign syscall handlers for the whole table.
	for nr := 0; nr < layout.SyscallCount; nr++ {
		nr := nr
		os.syscallHandlers[image.BenignHandler(nr)] = func(*ThreadContext, int) uint64 {
			return uint64(nr)
		}
	}

	p.GIC().Register(hw.IntNSTimer, os.handleTimerIRQ)
	for _, core := range p.Cores() {
		core.OnWorldChange(os.onWorldChange)
	}
	return os, nil
}

// Platform returns the hardware the OS runs on.
func (os *OS) Platform() *hw.Platform { return os.platform }

// Image returns the kernel image.
func (os *OS) Image() *mem.Image { return os.image }

// Config returns the effective configuration.
func (os *OS) Config() Config { return os.cfg }

// Threads returns all spawned threads. Callers must not mutate the slice.
func (os *OS) Threads() []*Thread { return os.threads }

// Crashed reports whether the kernel took an unrecoverable fault (e.g. an
// exception vector pointing at unmapped code).
func (os *OS) Crashed() (bool, string) { return os.crashed, os.crashMsg }

// OnSecurePause registers fn to run whenever a running thread loses its core
// to the secure world. The workload harness uses it to model the cache and
// pipeline disruption an interruption costs.
func (os *OS) OnSecurePause(fn func(t *Thread, coreID int)) {
	os.onSecurePause = append(os.onSecurePause, fn)
}

// RegisterIRQHandler maps kernel-code address addr to fn, as if code were
// loaded there. KProber-I loads its prober body in the module arena and
// points the IRQ exception vector at it (§IV-A1).
func (os *OS) RegisterIRQHandler(addr uint64, fn IRQHandler) {
	os.irqHandlers[addr] = fn
}

// RegisterSyscallHandler maps kernel-code address addr to fn. The sample
// rootkit registers its malicious GETTID body this way (§IV-A2).
func (os *OS) RegisterSyscallHandler(addr uint64, fn SyscallHandler) {
	os.syscallHandlers[addr] = fn
}

// Spawn creates and starts a thread. affinity lists the cores the thread
// may run on; FIFO threads need a priority in [MinRTPriority, MaxRTPriority]
// while CFS threads must pass 0.
func (os *OS) Spawn(name string, policy Policy, rtPrio int, affinity []int, program Program) (*Thread, error) {
	if program == nil {
		return nil, fmt.Errorf("richos: thread %q has no program", name)
	}
	switch policy {
	case PolicyFIFO:
		if rtPrio < MinRTPriority || rtPrio > MaxRTPriority {
			return nil, fmt.Errorf("richos: FIFO priority %d outside [%d, %d]", rtPrio, MinRTPriority, MaxRTPriority)
		}
	case PolicyCFS:
		if rtPrio != 0 {
			return nil, fmt.Errorf("richos: CFS thread %q must have priority 0, got %d", name, rtPrio)
		}
	default:
		return nil, fmt.Errorf("richos: unknown policy %v", policy)
	}
	if len(affinity) == 0 {
		return nil, fmt.Errorf("richos: thread %q has empty affinity", name)
	}
	seen := make(map[int]bool, len(affinity))
	for _, c := range affinity {
		if c < 0 || c >= os.platform.NumCores() {
			return nil, fmt.Errorf("richos: thread %q affinity includes core %d; platform has %d cores", name, c, os.platform.NumCores())
		}
		if seen[c] {
			return nil, fmt.Errorf("richos: thread %q affinity repeats core %d", name, c)
		}
		seen[c] = true
	}
	t := &Thread{
		id:       len(os.threads),
		name:     name,
		policy:   policy,
		rtPrio:   rtPrio,
		program:  program,
		affinity: append([]int(nil), affinity...),
		state:    StateReady,
		core:     affinity[0],
	}
	t.tc = ThreadContext{os: os, thread: t}
	os.threads = append(os.threads, t)
	os.place(t)
	return t, nil
}

// AllCores returns the affinity mask covering every core.
func (os *OS) AllCores() []int {
	ids := make([]int, os.platform.NumCores())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// place picks a core for a ready thread and enqueues it there, kicking the
// scheduler if the thread can run immediately.
func (os *OS) place(t *Thread) {
	if t.state != StateReady {
		panic(fmt.Sprintf("richos: place %v in state %v", t, t.state))
	}
	best := -1
	bestScore := int(^uint(0) >> 1)
	for _, cid := range t.affinity {
		cs := os.cores[cid]
		score := cs.readyCount()
		if cs.current != nil {
			score++
		}
		if cs.inSecure {
			// A core the secure world holds makes no progress; avoid it
			// unless it is the only option (pinned threads).
			score += 100
		}
		// Prefer the warm (last) core on ties, then lower IDs.
		if score < bestScore || (score == bestScore && cid == t.core && best != t.core) {
			best, bestScore = cid, score
		}
	}
	os.enqueue(os.cores[best], t)
}

// insert adds a ready thread to the core's queues without any scheduling
// side effects.
func (os *OS) insert(cs *coreState, t *Thread) {
	t.core = cs.id
	switch t.policy {
	case PolicyFIFO:
		t.enqueueSeq = os.nextSeq
		os.nextSeq++
		// Insert keeping (prio desc, seq asc).
		pos := len(cs.fifo)
		for i, other := range cs.fifo {
			if t.rtPrio > other.rtPrio {
				pos = i
				break
			}
		}
		cs.fifo = append(cs.fifo, nil)
		copy(cs.fifo[pos+1:], cs.fifo[pos:])
		cs.fifo[pos] = t
	case PolicyCFS:
		if t.vruntime < cs.minVruntime {
			t.vruntime = cs.minVruntime
		}
		cs.cfs = append(cs.cfs, t)
	}
}

// enqueue inserts a ready thread and kicks the scheduler: an idle core
// dispatches, and a FIFO thread that beats the running one preempts it.
func (os *OS) enqueue(cs *coreState, t *Thread) {
	os.insert(cs, t)
	if cs.inSecure {
		return // the core makes no progress until the secure world leaves
	}
	if cs.current == nil {
		os.dispatch(cs)
		return
	}
	if t.beats(cs.current) {
		os.preempt(cs)
		os.dispatch(cs)
	}
}

// pickNext removes and returns the next thread to run, or nil.
func (cs *coreState) pickNext() *Thread {
	if len(cs.fifo) > 0 {
		t := cs.fifo[0]
		cs.fifo = append(cs.fifo[:0], cs.fifo[1:]...)
		return t
	}
	if len(cs.cfs) == 0 {
		return nil
	}
	min := 0
	for i, t := range cs.cfs {
		if t.vruntime < cs.cfs[min].vruntime {
			min = i
		}
	}
	t := cs.cfs[min]
	cs.cfs = append(cs.cfs[:min], cs.cfs[min+1:]...)
	return t
}

// dispatch picks the next thread for an empty core and starts it.
func (os *OS) dispatch(cs *coreState) {
	if cs.current != nil {
		panic(fmt.Sprintf("richos: dispatch on busy core %d", cs.id))
	}
	if cs.inSecure || os.crashed {
		return
	}
	t := cs.pickNext()
	if t == nil {
		// Idle load balancing: pull a migratable waiter from the most
		// loaded core, like the kernel's idle balancer. Without this, a
		// thread migrated off a secure-world-held core would leave its
		// old core permanently empty after release.
		if donor := os.busiestDonor(cs.id); donor != nil {
			os.pullFrom(donor, cs)
			t = cs.pickNext()
		}
		if t == nil {
			return // idle; NO_HZ_IDLE lets the tick die in handleTimerIRQ
		}
	}
	cs.current = t
	t.state = StateRunning
	t.core = cs.id
	t.schedules++
	cs.sliceStart = os.platform.Engine().Now()
	if t.policy == PolicyCFS && t.vruntime > cs.minVruntime {
		cs.minVruntime = t.vruntime
	}
	// Dispatch latency: runqueue work and the context switch. Modeled as
	// CPU time the thread owes before its program logic runs — it is the
	// baseline jitter in the probers' report times.
	t.pendingCompute += os.platform.Perf().ThreadWakeLatency.Draw(os.rng)
	if !cs.tickArmed {
		os.armTick(cs)
	}
	os.runChunk(cs)
}

// runChunk runs the current thread: either the compute it still owes, or
// its program's next step.
func (os *OS) runChunk(cs *coreState) {
	t := cs.current
	for {
		if t.pendingCompute > 0 {
			cs.computeStart = os.platform.Engine().Now()
			cs.computeLen = t.pendingCompute
			cs.computeDone = os.platform.Engine().After(cs.computeLen, "compute", cs.onComputeDone)
			return
		}
		t.tc.coreID = cs.id
		step := t.program.Next(&t.tc)
		switch step.Kind {
		case ActionCompute:
			if step.Dur <= 0 {
				panic(fmt.Sprintf("richos: %v Compute(%v); duration must be positive", t, step.Dur))
			}
			t.pendingCompute = step.Dur
		case ActionSleep:
			if step.Dur <= 0 {
				panic(fmt.Sprintf("richos: %v Sleep(%v); duration must be positive", t, step.Dur))
			}
			os.sleepThread(cs, t, step.Dur)
			return
		case ActionYield:
			t.state = StateReady
			cs.current = nil
			// A yield costs a context switch; bill it as owed compute so a
			// lone yielding thread cannot spin the simulation in place.
			t.pendingCompute += os.platform.Perf().ThreadWakeLatency.Draw(os.rng)
			os.enqueue(cs, t)
			if cs.current == nil {
				os.dispatch(cs)
			}
			return
		case ActionExit:
			t.state = StateExited
			cs.current = nil
			os.dispatch(cs)
			return
		case ActionBlock:
			t.state = StateSleeping
			cs.current = nil
			os.dispatch(cs)
			return
		default:
			panic(fmt.Sprintf("richos: %v returned invalid action %d", t, step.Kind))
		}
	}
}

// computeDone finishes the current CPU chunk and consults the program again.
func (os *OS) computeDone(cs *coreState) {
	t := cs.current
	if t == nil {
		panic(fmt.Sprintf("richos: compute completion on empty core %d", cs.id))
	}
	t.cpuTime += cs.computeLen
	t.vruntime += cs.computeLen
	t.pendingCompute -= cs.computeLen
	if t.pendingCompute < 0 {
		t.pendingCompute = 0
	}
	os.runChunk(cs)
}

// haltCurrent stops the running thread mid-chunk, accounting the CPU time it
// actually got, and returns it. The caller decides where it goes next.
func (os *OS) haltCurrent(cs *coreState) *Thread {
	t := cs.current
	if t == nil {
		return nil
	}
	if cs.computeDone.Live() {
		cs.computeDone.Cancel()
		consumed := os.platform.Engine().Now().Sub(cs.computeStart)
		t.cpuTime += consumed
		t.vruntime += consumed
		t.pendingCompute -= consumed
		if t.pendingCompute < 0 {
			t.pendingCompute = 0
		}
	}
	cs.current = nil
	t.state = StateReady
	return t
}

// preempt kicks the running thread back to its queue without dispatching;
// the caller dispatches once afterwards.
func (os *OS) preempt(cs *coreState) {
	t := os.haltCurrent(cs)
	if t == nil {
		return
	}
	// Returning to the queue after preemption costs the switch back in.
	t.pendingCompute += os.platform.Perf().ThreadWakeLatency.Draw(os.rng)
	os.insert(cs, t)
}

// Wake makes a blocked (or timer-sleeping) thread ready immediately — the
// wake side of the Block primitive. Waking a thread that is not sleeping is
// a no-op, matching wake_up_process semantics.
func (os *OS) Wake(t *Thread) {
	if t.state != StateSleeping {
		return
	}
	t.wake.Cancel()
	t.state = StateReady
	os.place(t)
}

// sleepThread blocks the current thread for d.
func (os *OS) sleepThread(cs *coreState, t *Thread, d time.Duration) {
	t.state = StateSleeping
	cs.current = nil
	t.wake = os.platform.Engine().After(d, "wake", func() {
		t.state = StateReady
		os.place(t)
	})
	os.dispatch(cs)
}

// onWorldChange reacts to the secure world taking or releasing a core.
func (os *OS) onWorldChange(core *hw.Core, _, newWorld hw.World) {
	cs := os.cores[core.ID()]
	if newWorld == hw.SecureWorld {
		cs.inSecure = true
		if t := os.haltCurrent(cs); t != nil {
			t.securePauses++
			for _, fn := range os.onSecurePause {
				fn(t, cs.id)
			}
			if t.Pinned() {
				// Fixed affinity: the thread is stuck until the core
				// returns — the side channel of §III-B1.
				os.insert(cs, t)
			} else {
				os.place(t)
			}
		}
		// The kernel migrates waiting threads off a stalled core when
		// their affinity allows it.
		os.migrateWaiters(cs)
		return
	}
	cs.inSecure = false
	if cs.current == nil {
		os.dispatch(cs)
	}
}

// busiestDonor returns the core with the most queued threads that has at
// least one thread allowed to run on core id, or nil.
func (os *OS) busiestDonor(id int) *coreState {
	var donor *coreState
	best := 0
	for _, other := range os.cores {
		if other.id == id {
			continue
		}
		if other.readyCount() <= best {
			continue
		}
		if os.migratableTo(other, id) >= 0 {
			donor = other
			best = other.readyCount()
		}
	}
	return donor
}

// migratableTo finds a queued CFS thread on donor that may run on core id,
// returning its index in donor.cfs or -1. Only CFS threads are pulled: FIFO
// queue order is a priority contract the balancer must not reshuffle.
func (os *OS) migratableTo(donor *coreState, id int) int {
	for i, t := range donor.cfs {
		if !t.Pinned() && t.allows(id) {
			return i
		}
	}
	return -1
}

// pullFrom moves one migratable thread from donor to cs.
func (os *OS) pullFrom(donor, cs *coreState) {
	i := os.migratableTo(donor, cs.id)
	if i < 0 {
		return
	}
	t := donor.cfs[i]
	donor.cfs = append(donor.cfs[:i], donor.cfs[i+1:]...)
	os.insert(cs, t)
}

// migrateWaiters re-places every queued thread that may run elsewhere.
func (os *OS) migrateWaiters(cs *coreState) {
	var stay []*Thread
	var move []*Thread
	for _, t := range cs.fifo {
		if t.Pinned() {
			stay = append(stay, t)
		} else {
			move = append(move, t)
		}
	}
	cs.fifo = stay
	var stayCFS []*Thread
	for _, t := range cs.cfs {
		if t.Pinned() {
			stayCFS = append(stayCFS, t)
		} else {
			move = append(move, t)
		}
	}
	cs.cfs = stayCFS
	for _, t := range move {
		os.place(t)
	}
}

// crash marks the kernel dead: scheduling stops platform-wide.
func (os *OS) crash(msg string) {
	if os.crashed {
		return
	}
	os.crashed = true
	os.crashMsg = msg
	for _, cs := range os.cores {
		os.haltCurrent(cs)
		cs.fifo = nil
		cs.cfs = nil
	}
}
