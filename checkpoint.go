package satin

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"satin/internal/attack"
	"satin/internal/campaign"
	"satin/internal/checkpoint"
	"satin/internal/core"
	"satin/internal/faultinject"
	"satin/internal/hw"
	"satin/internal/mem"
	"satin/internal/simclock"
	"satin/internal/spec"
)

// Checkpoint/fork facade — the orchestration half of the protocol whose
// format lives in internal/checkpoint and whose contract is documented in
// docs/CHECKPOINT.md.
//
// A checkpoint captures a running scenario at a *claimable instant*: a
// virtual time at which every live pending event in the engine carries the
// claim its component armed it with (no secure-world payload in flight,
// every core online in the normal world). From one checkpoint, any number of
// divergent continuations fork: each is a fresh scenario built from its own
// member spec, overwritten with the captured state, and byte-identical from
// there on to a from-scratch run of that member — trace stream, timeline,
// metrics, and report all included. Memory is captured copy-on-write: only pages
// whose write generation moved since construction are stored.

// Snapshot is a captured scenario at a claimable instant; see
// Scenario.Checkpoint. Write and read them with WriteCheckpoint /
// ReadCheckpoint.
type Snapshot = checkpoint.Snapshot

// WriteCheckpoint writes a snapshot to path in the versioned SATINCKP format.
func WriteCheckpoint(path string, snap *Snapshot) error {
	return checkpoint.WriteFile(path, snap)
}

// ReadCheckpoint reads a snapshot written by WriteCheckpoint, verifying
// magic, version, and checksum.
func ReadCheckpoint(path string) (*Snapshot, error) {
	return checkpoint.ReadFile(path)
}

// CheckpointSupported reports whether the spec'd scenario can be checkpointed
// at instant `at` (and, symmetrically, whether it can resume from a snapshot
// taken there). The v1 protocol covers the fast evader or no evader, requires
// observability (the timeline is part of the capture), a fixed run horizon
// beyond the checkpoint, no profiler, and a fault plan — if any — whose
// observable effects all land strictly after the instant.
func CheckpointSupported(s ScenarioSpec, at time.Duration) error {
	c, err := spec.Canonicalize(s)
	if err != nil {
		return err
	}
	return checkpointSupported(c, at)
}

// checkpointSupported is CheckpointSupported for a canonical spec.
func checkpointSupported(c ScenarioSpec, at time.Duration) error {
	if at <= 0 {
		return fmt.Errorf("satin: checkpoint instant %v is not after boot", at)
	}
	if c.Evader.Kind == spec.EvaderThread {
		return fmt.Errorf("satin: the thread-level evader is not checkpointable (perpetual unclaimed thread events)")
	}
	if !c.ObservabilityEnabled() {
		return fmt.Errorf("satin: checkpointing requires observability (the timeline is part of the capture)")
	}
	if c.ProfilingEnabled() {
		return fmt.Errorf("satin: profiled runs are not checkpointable (span stacks are not captured)")
	}
	if c.Run.ToCompletion || time.Duration(c.Run.For) <= at {
		return fmt.Errorf("satin: run horizon %v does not extend past the checkpoint instant %v", time.Duration(c.Run.For), at)
	}
	if c.Faults != "" {
		plan, err := faultinject.ParsePlan(c.Faults)
		if err != nil {
			return err
		}
		if !plan.ForkableAfter(simclock.Time(at)) {
			return fmt.Errorf("satin: fault plan %q perturbs the run at or before the checkpoint instant %v", c.Faults, at)
		}
	}
	return nil
}

// CheckpointKey canonicalizes the spec and strips the sections a fork may
// diverge in — the fault plan, the run horizon, and the export list — and
// returns the marshaled remainder. Two specs share a checkpointable prefix
// exactly when their keys are byte-equal; the key is also the PrefixSpec
// embedded in a snapshot, which ResumeScenario matches resuming specs
// against.
func CheckpointKey(s ScenarioSpec) ([]byte, error) {
	c, err := spec.Canonicalize(s)
	if err != nil {
		return nil, err
	}
	return checkpointKey(c)
}

// checkpointKey is CheckpointKey for a canonical spec.
func checkpointKey(c ScenarioSpec) ([]byte, error) {
	k := c.Clone()
	k.Faults = ""
	k.Run = spec.Run{}
	k.Export = nil
	return spec.Marshal(k)
}

// claimableStepBound caps the step-past-the-barrier search. Secure-world
// residencies span a handful of transient events each, so a claimable instant
// is always a few steps away; hitting the bound means a component is
// scheduling events the protocol does not know about.
const claimableStepBound = 10000

// Checkpoint advances the scenario to virtual instant `at`, steps to the
// first claimable instant at or after it, and captures a snapshot carrying
// prefixKey as its resume-compatibility key (produce it with CheckpointKey).
//
// The scenario must be fault-free (checkpoints are taken on shared prefixes;
// members add their fault plans on resume), observable, profiler-free, and
// driven by the fast evader or none. The scenario remains live and runnable
// afterwards — capturing reads, never mutates.
func (s *Scenario) Checkpoint(at time.Duration, prefixKey []byte) (*Snapshot, error) {
	if s.evader != nil {
		return nil, fmt.Errorf("satin: the thread-level evader is not checkpointable")
	}
	if s.prof != nil {
		return nil, fmt.Errorf("satin: profiled runs are not checkpointable")
	}
	if s.bus == nil || s.reg == nil {
		return nil, fmt.Errorf("satin: checkpointing requires observability")
	}
	if s.injector != nil {
		return nil, fmt.Errorf("satin: checkpoints are taken on fault-free prefixes (the member's plan installs on resume)")
	}
	if s.guard != nil && (s.guard.Trapped() != 0 || len(s.guard.Denied()) != 0) {
		return nil, fmt.Errorf("satin: the sync guard trapped writes before the checkpoint instant")
	}
	if tc := simclock.Time(at); tc < s.engine.Now() {
		return nil, fmt.Errorf("satin: checkpoint instant %v is in the scenario's past (now %v)", at, s.Now())
	}
	s.engine.RunUntil(simclock.Time(at))
	claims, err := s.stepToClaimable()
	if err != nil {
		return nil, err
	}

	st := checkpoint.State{
		Now:        s.engine.Now(),
		Dispatched: s.engine.Dispatched(),
		Claims:     claims,
		// The raw registry snapshot, NOT Scenario.Metrics(): the end-of-run
		// refresh would mint engine.* gauges that a freshly built fork's
		// registry does not hold yet, and Restore rejects unknown rows.
		Metrics:  s.reg.Snapshot(),
		Timeline: s.timeline.CheckpointEvents(),
	}
	for _, c := range s.plat.Cores() {
		cs, err := c.CheckpointState()
		if err != nil {
			return nil, err
		}
		st.Cores = append(st.Cores, cs)
	}
	if err := s.plat.GIC().CheckpointIdle(); err != nil {
		return nil, err
	}
	if st.Monitor, err = s.monitor.CheckpointState(); err != nil {
		return nil, err
	}
	if st.Checker, err = s.checker.CheckpointState(); err != nil {
		return nil, err
	}
	if s.satin != nil {
		ss, err := s.satin.CheckpointState()
		if err != nil {
			return nil, err
		}
		st.SATIN = &ss
	}
	if s.baseline != nil {
		bs, err := s.baseline.CheckpointState()
		if err != nil {
			return nil, err
		}
		st.Baseline = &bs
	}
	if s.fastEvader != nil {
		fs, err := s.fastEvader.CheckpointState()
		if err != nil {
			return nil, err
		}
		st.FastEvader = &fs
		rs := s.rootkit.CheckpointState()
		st.Rootkit = &rs
	}
	if s.flood != nil {
		fs := s.flood.CheckpointState()
		st.Flood = &fs
	}

	m := s.image.Mem()
	gens := m.PageGens()
	var pages []checkpoint.Page
	for p, g := range gens {
		if g == s.bootGens[p] {
			continue
		}
		view, err := m.PageView(p)
		if err != nil {
			return nil, err
		}
		pages = append(pages, checkpoint.Page{Index: p, Data: append([]byte(nil), view...)})
	}
	return &Snapshot{
		PrefixSpec: append([]byte(nil), prefixKey...),
		State:      st,
		Pages:      pages,
		Gens:       gens,
		Boot:       s.image.Boot(),
	}, nil
}

// stepToClaimable fires events one at a time until every live pending event
// carries a claim — which it does whenever no secure-world payload is in
// flight, typically zero to a few steps from any instant — and returns the
// claims. While an unclaimed event is pending the queue is not empty, so
// each step fires one.
func (s *Scenario) stepToClaimable() ([]simclock.Claim, error) {
	for steps := 0; ; steps++ {
		claims, err := s.engine.Claims()
		if err == nil {
			return claims, nil
		}
		if steps == claimableStepBound {
			return nil, fmt.Errorf("satin: no claimable instant within %d events of the barrier: %w", claimableStepBound, err)
		}
		s.engine.Step()
	}
}

// RestoreSnapshot overwrites a freshly constructed, never-driven scenario
// with a snapshot's state: component state and memory pages land first, the
// captured timeline is replayed through the bus (so sinks subscribed since
// construction see the prefix), the clock jumps to the checkpoint instant,
// and finally each claimed event is re-armed through its owning component in
// capture order. The scenario's own construction — including any fault plan
// the snapshot's prefix did not carry — is preserved; only the captured
// prefix's effects are imposed. A snapshot whose claims precede its instant
// or are out of firing order is refused before anything changes, and the
// restore ends by checking the engine's pending claims against the
// snapshot's.
//
// Use ResumeScenario unless sinks must be subscribed between construction
// and restore.
func (s *Scenario) RestoreSnapshot(snap *Snapshot) error {
	if s.engine.Now() != 0 || s.engine.Dispatched() != 0 {
		return fmt.Errorf("satin: restoring into a scenario that has already been driven")
	}
	if s.evader != nil || s.prof != nil {
		return fmt.Errorf("satin: scenario is not checkpoint-compatible (thread evader or profiler installed)")
	}
	if s.bus == nil || s.reg == nil {
		return fmt.Errorf("satin: restoring requires observability")
	}
	if s.timeline.Len() != 0 {
		return fmt.Errorf("satin: restoring into a scenario with a non-empty timeline")
	}
	st := &snap.State
	if len(st.Cores) != s.plat.NumCores() {
		return fmt.Errorf("satin: snapshot has %d cores, scenario has %d", len(st.Cores), s.plat.NumCores())
	}
	if (st.SATIN != nil) != (s.satin != nil) {
		return fmt.Errorf("satin: snapshot and scenario disagree on SATIN presence")
	}
	if (st.Baseline != nil) != (s.baseline != nil) {
		return fmt.Errorf("satin: snapshot and scenario disagree on baseline presence")
	}
	if (st.FastEvader != nil) != (s.fastEvader != nil) {
		return fmt.Errorf("satin: snapshot and scenario disagree on fast evader presence")
	}
	if st.FastEvader != nil && st.Rootkit == nil {
		return fmt.Errorf("satin: snapshot has a fast evader but no rootkit state")
	}
	if (st.Flood != nil) != (s.flood != nil) {
		return fmt.Errorf("satin: snapshot and scenario disagree on flood presence")
	}
	// Phase 2 re-arms each claim at its instant, which must not precede the
	// snapshot's, and in the capture's firing order, which the re-armed
	// events' fresh sequence numbers then keep. Kept claims never appear in
	// a snapshot: the prefix is fault-free by construction. Checking here
	// leaves the scenario untouched by a snapshot that fails.
	for i, c := range st.Claims {
		if c.Kept {
			return fmt.Errorf("satin: snapshot contains a kept claim %q/%q — prefixes are fault-free", c.Owner, c.Name)
		}
		if c.When < st.Now {
			return fmt.Errorf("satin: claim %q/%q at %v precedes the snapshot instant %v", c.Owner, c.Name, c.When, st.Now)
		}
		if i > 0 {
			if p := st.Claims[i-1]; c.When < p.When || (c.When == p.When && c.Seq <= p.Seq) {
				return fmt.Errorf("satin: claim %q/%q (at %v, seq %d) is out of firing order", c.Owner, c.Name, c.When, c.Seq)
			}
		}
	}

	// Phase 1: pure state. Components cancel their own construction-era
	// events (core timers, the flood's first tick) as they restore.
	for i, cs := range st.Cores {
		if err := s.plat.Core(i).RestoreState(cs); err != nil {
			return err
		}
	}
	if err := s.monitor.RestoreState(st.Monitor); err != nil {
		return err
	}
	if err := s.checker.RestoreState(st.Checker); err != nil {
		return err
	}
	if st.SATIN != nil {
		if err := s.satin.RestoreState(*st.SATIN); err != nil {
			return err
		}
	}
	if st.Baseline != nil {
		if err := s.baseline.RestoreState(*st.Baseline); err != nil {
			return err
		}
	}
	if st.FastEvader != nil {
		if err := s.fastEvader.RestoreState(*st.FastEvader); err != nil {
			return err
		}
		s.rootkit.RestoreState(*st.Rootkit)
	}
	if st.Flood != nil {
		s.flood.RestoreState(*st.Flood)
	}
	m := s.image.Mem()
	for _, p := range snap.Pages {
		if err := m.RestorePage(p.Index, p.Data); err != nil {
			return err
		}
	}
	if err := m.SetPageGens(snap.Gens); err != nil {
		return err
	}
	if err := s.reg.Restore(st.Metrics); err != nil {
		return err
	}
	// Replay the prefix through the bus: the timeline (subscribed at
	// construction) refills, and any sink the caller subscribed before this
	// call sees the prefix events exactly as a from-scratch run would emit
	// them.
	for _, e := range st.Timeline {
		s.bus.Publish(e)
	}
	if err := s.engine.RestoreClock(st.Now, st.Dispatched); err != nil {
		return err
	}

	// Phase 2: re-arm the claims in capture order, so same-instant events
	// fire in the order the original run would have.
	for _, c := range st.Claims {
		var err error
		switch c.Owner {
		case hw.ClaimOwnerTimer:
			id := int(c.Key)
			if id < 0 || id >= s.plat.NumCores() {
				return fmt.Errorf("satin: timer claim for unknown core %d", id)
			}
			err = s.plat.Core(id).RearmTimer(c)
		case core.ClaimOwnerSATIN:
			if s.satin == nil {
				return fmt.Errorf("satin: SATIN claim in a snapshot without SATIN state")
			}
			err = s.satin.RearmOrphan(c)
		case attack.ClaimOwnerFastEvader:
			if s.fastEvader == nil {
				return fmt.Errorf("satin: fast evader claim in a snapshot without evader state")
			}
			err = s.fastEvader.Rearm(c)
		case attack.ClaimOwnerFlood:
			if s.flood == nil {
				return fmt.Errorf("satin: flood claim in a snapshot without flood state")
			}
			err = s.flood.RearmTick(c)
		default:
			err = fmt.Errorf("satin: claim names unknown owner %q", c.Owner)
		}
		if err != nil {
			return err
		}
	}

	// The engine is the record of what is pending. Less this scenario's own
	// construction-scheduled fault events (kept claims), it must hold
	// exactly the snapshot's claims.
	pending, err := s.engine.Claims()
	if err != nil {
		return fmt.Errorf("satin: restored scenario is not claimable: %w", err)
	}
	rearmed := pending[:0]
	for _, c := range pending {
		if !c.Kept {
			rearmed = append(rearmed, c)
		}
	}
	if len(rearmed) != len(st.Claims) {
		return fmt.Errorf("satin: restored scenario has %d claimed events pending, the snapshot %d claims", len(rearmed), len(st.Claims))
	}
	for i, got := range rearmed {
		if want := st.Claims[i]; got.Owner != want.Owner || got.Key != want.Key || got.Name != want.Name || got.When != want.When {
			return fmt.Errorf("satin: restored event %q/%q (key %d) at %v does not match the snapshot's claim %q/%q (key %d) at %v",
				got.Owner, got.Name, got.Key, got.When, want.Owner, want.Name, want.Key, want.When)
		}
	}
	return nil
}

// ResumeScenario validates that member (a full spec, fault plan and run
// horizon included) resumes from snap — its CheckpointKey must match the
// snapshot's PrefixSpec byte for byte — then builds the member's scenario
// and restores the snapshot into it. The returned scenario sits at the
// checkpoint instant; drive the remaining horizon with RunRemaining (or
// Run directly). The canonical member spec is returned alongside.
//
// A snapshot taken in this process carries its prefix's boot state, and the
// member's kernel image is built from it: the image shares the boot bytes
// page by page rather than re-filling them from the seed, and the golden
// hashes come from the prefix's memo. A snapshot read from disk has none, so its members boot
// from the seed. Either way the member is byte-identical.
func ResumeScenario(snap *Snapshot, member ScenarioSpec) (*Scenario, ScenarioSpec, error) {
	c, err := ValidateResume(snap, member)
	if err != nil {
		return nil, c, err
	}
	sc, err := newScenario(c, snap.Boot)
	if err != nil {
		return nil, c, err
	}
	if err := sc.RestoreSnapshot(snap); err != nil {
		return nil, c, err
	}
	return sc, c, nil
}

// ValidateResume is ResumeScenario's admission check alone: it canonicalizes
// member and verifies it can resume from snap, without building anything.
// Callers that need to attach observers before the timeline replay (a trace
// sink must see the replayed prefix) build the scenario themselves, subscribe,
// and then call RestoreSnapshot — satin-sim's -resume-from does exactly this.
func ValidateResume(snap *Snapshot, member ScenarioSpec) (ScenarioSpec, error) {
	c, err := spec.Canonicalize(member)
	if err != nil {
		return c, err
	}
	if err := checkpointSupported(c, snap.State.Now.Duration()); err != nil {
		return c, err
	}
	key, err := checkpointKey(c)
	if err != nil {
		return c, err
	}
	if !bytes.Equal(key, snap.PrefixSpec) {
		return c, fmt.Errorf("satin: spec does not share the snapshot's prefix (checkpoint keys differ)")
	}
	return c, nil
}

// RunRemaining drives a resumed scenario from its current instant to the
// spec's run horizon — the fork-side counterpart of DriveSpec.
func RunRemaining(sc *Scenario, s ScenarioSpec) {
	if d := time.Duration(s.Run.For) - sc.Now(); d > 0 {
		sc.Run(d)
	}
}

// Campaign integration: cells that share boot work run as one group. A
// campaign crossing one scenario with a fault axis produces cells that
// differ only in their fault plans — and a forkable plan's effects all land
// late in the run, so the cells share a long fault-free prefix: the group
// runs it once and forks one continuation per member, O(prefix + K×suffix)
// instead of O(K×(prefix+suffix)). Cells the checkpoint protocol does not
// cover still share their seed's kernel boot, the stage in which SATIN
// hashes its golden table (§V-B): the group fills the kernel and hashes the
// table once, and every other member shares the boot bytes until it writes
// them.
// CheckpointGroupKey identifies the groups and RunCheckpointGroup executes
// one. Wire both into campaign.RunOptions (benchtables -campaign and the
// satin-serve worker always do).

// CheckpointGroupKey is the campaign.GroupKeyFunc for boot sharing. A spec
// the checkpoint protocol covers keys by its checkpoint key, so cells with
// equal keys share a forkable prefix. Any other spec keys by a boot key
// naming only its seed, the one input the kernel boot reads, so the cells
// of a seed share one boot. A boot key never equals a checkpoint key (those
// are canonical JSON). ok=false marks a spec that does not canonicalize: it
// runs alone, and its trial reports the error.
func CheckpointGroupKey(s ScenarioSpec) (string, bool) {
	c, err := spec.Canonicalize(s)
	if err != nil {
		return "", false
	}
	if checkpointSupported(c, time.Nanosecond) != nil {
		return fmt.Sprintf("boot seed=%d", c.Seed), true
	}
	key, err := checkpointKey(c)
	if err != nil {
		return "", false
	}
	return string(key), true
}

const (
	// forkBarrierMargin keeps the shared barrier strictly clear of every
	// member's first divergence (fault instants are exclusive bounds, but a
	// margin keeps the barrier from landing inside the claim-stepping window
	// right at one).
	forkBarrierMargin = 100 * time.Millisecond
	// forkMinBarrier is the smallest prefix worth forking: below it the
	// snapshot overhead outweighs the shared work.
	forkMinBarrier = time.Second
)

// forkBarrier places the checkpoint for a group of canonical members: the
// minimum over members of their run horizon and first fault instant, minus
// the margin. ok=false means the shared prefix is too short to pay for
// forking and the group should run from scratch.
func forkBarrier(members []ScenarioSpec) (time.Duration, bool) {
	var limit time.Duration
	for i, c := range members {
		h := time.Duration(c.Run.For)
		if i == 0 || h < limit {
			limit = h
		}
		if c.Faults == "" {
			continue
		}
		plan, err := faultinject.ParsePlan(c.Faults)
		if err != nil {
			return 0, false
		}
		if at, ok := plan.FirstFaultAt(); ok && at < limit {
			limit = at
		}
	}
	b := limit - forkBarrierMargin
	if b < forkMinBarrier {
		return 0, false
	}
	return b, true
}

// RunCheckpointGroup is the campaign.GroupTrialFunc for boot sharing. When
// the members are checkpointable and share a long enough prefix, it runs
// their fault-free prefix once, checkpoints it at the latest shared barrier
// and forks one continuation per member, reporting those members Forked.
// Every member that does not fork (all of a boot group, a fork group whose
// prefix is too short or cannot be checkpointed, a member that fails to
// resume) runs from scratch on one shared boot state: the first boots from
// the seed unless the prefix already did, and the rest share its pages and
// read its memoized golden sums, as ResumeScenario's members do. The boot
// state lives for this call only. Every result is byte-equivalent to
// RunSpecTrial on the same member.
func RunCheckpointGroup(ctx context.Context, members []ScenarioSpec) []campaign.GroupResult {
	out := make([]campaign.GroupResult, len(members))
	canon := make([]ScenarioSpec, len(members))
	errs := make([]error, len(members))
	valid := true
	for i := range members {
		canon[i], errs[i] = spec.Canonicalize(members[i])
		valid = valid && errs[i] == nil
	}
	var snap *Snapshot
	var boot *mem.BootState
	if valid {
		snap, boot = forkPrefix(canon)
	}
	for i, c := range canon {
		if err := ctx.Err(); err != nil {
			out[i] = campaign.GroupResult{Err: err}
			continue
		}
		if errs[i] != nil {
			out[i] = campaign.GroupResult{Err: errs[i]}
			continue
		}
		if snap != nil {
			// The key matched at grouping time, so a failed resume is
			// unexpected: the member runs from scratch rather than failing
			// its cell.
			if sc, rc, err := ResumeScenario(snap, c); err == nil {
				RunRemaining(sc, rc)
				out[i] = campaign.GroupResult{Metrics: specTrialMetrics(rc, sc.Report()), Forked: true}
				continue
			}
		}
		if boot != nil && boot.Seed() != c.Seed {
			// Only a caller grouping by something other than
			// CheckpointGroupKey mixes seeds; such a member boots its own.
			boot = nil
		}
		m, b, err := runSpecTrial(c, boot)
		if b != nil {
			boot = b
		}
		out[i] = campaign.GroupResult{Metrics: m, Err: err}
	}
	return out
}

// forkPrefix runs the canonical members' shared fault-free prefix and
// checkpoints it at their barrier. The snapshot is nil when the group
// cannot fork: its members are not checkpointable, their barrier is too
// short, or the capture fails. The boot state is the prefix's whenever the
// prefix was built.
func forkPrefix(canon []ScenarioSpec) (*Snapshot, *mem.BootState) {
	barrier, ok := forkBarrier(canon)
	if !ok || checkpointSupported(canon[0], barrier) != nil {
		return nil, nil
	}
	prefix := canon[0].Clone()
	prefix.Faults = ""
	psc, err := newScenario(prefix, nil)
	if err != nil {
		return nil, nil
	}
	key, err := checkpointKey(canon[0])
	if err != nil {
		return nil, psc.image.Boot()
	}
	snap, err := psc.Checkpoint(barrier, key)
	if err != nil {
		return nil, psc.image.Boot()
	}
	return snap, snap.Boot
}
