package satin

// Tests for the checkpoint/fork protocol (docs/CHECKPOINT.md). The load-
// bearing property is fork identity: a continuation restored from a snapshot
// must be byte-identical — streamed trace, timeline text, and formatted
// report — to a from-scratch run of the same member spec. Everything else
// (format round-trip, support gating, the edge cases the issue calls out)
// hangs off that.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"satin/internal/campaign"
	"satin/internal/simclock"
)

// ckptSpec builds a checkpointable spec: SATIN vs the fast evader, a fixed
// horizon, and an optional member fault plan.
func ckptSpec(horizon time.Duration, faults string) ScenarioSpec {
	return ScenarioSpec{
		Version: ScenarioSpecVersion,
		Name:    "ckpt",
		Seed:    1,
		Defense: SpecDefense{Kind: "satin", SATIN: &SpecSATINConfig{Tgoal: SpecDuration(19 * time.Second)}},
		Evader:  SpecEvader{Kind: "fast"},
		Run:     SpecRun{For: SpecDuration(horizon)},
		Faults:  faults,
	}
}

// takeCheckpoint runs the spec's fault-free prefix to `at` and captures a
// snapshot keyed for the given member.
func takeCheckpoint(t *testing.T, member ScenarioSpec, at time.Duration) *Snapshot {
	t.Helper()
	prefix := member.Clone()
	prefix.Faults = ""
	sc, err := FromSpec(prefix)
	if err != nil {
		t.Fatalf("FromSpec(prefix): %v", err)
	}
	key, err := CheckpointKey(member)
	if err != nil {
		t.Fatalf("CheckpointKey: %v", err)
	}
	snap, err := sc.Checkpoint(at, key)
	if err != nil {
		t.Fatalf("Checkpoint(%v): %v", at, err)
	}
	return snap
}

// runForked restores snap into a fresh member scenario (sink subscribed
// before restore, as satin-sim -resume-from does) and drives the remaining
// horizon.
func runForked(t *testing.T, snap *Snapshot, member ScenarioSpec) (trace, timeline, report string) {
	t.Helper()
	c, err := CanonicalizeSpec(member)
	if err != nil {
		t.Fatalf("CanonicalizeSpec: %v", err)
	}
	sc, err := FromSpec(c)
	if err != nil {
		t.Fatalf("FromSpec(member): %v", err)
	}
	var out bytes.Buffer
	sink, err := NewStreamSink(&out, ExportJSONL)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	sc.Bus().Subscribe(sink.OnEvent)
	if err := sc.RestoreSnapshot(snap); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	RunRemaining(sc, c)
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var tl bytes.Buffer
	if err := sc.Timeline().WriteText(&tl); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return out.String(), tl.String(), fmt.Sprintf("%+v", sc.Report())
}

// runResumed resumes member through ResumeScenario on an in-process
// snapshot — the path campaign fork groups take, with the member's image
// built from the prefix's boot state. ResumeScenario replays the prefix
// through the bus before a caller can subscribe, so the sink is first fed
// the snapshot's timeline: the events a sink subscribed before the restore
// would have seen.
func runResumed(t *testing.T, snap *Snapshot, member ScenarioSpec) (trace, timeline, report string) {
	t.Helper()
	sc, c, err := ResumeScenario(snap, member)
	if err != nil {
		t.Fatalf("ResumeScenario: %v", err)
	}
	if sc.Image().Boot() != snap.Boot {
		t.Fatal("the resumed member's image was not built from the snapshot's boot state")
	}
	var out bytes.Buffer
	sink, err := NewStreamSink(&out, ExportJSONL)
	if err != nil {
		t.Fatalf("NewStreamSink: %v", err)
	}
	for _, e := range snap.State.Timeline {
		sink.OnEvent(e)
	}
	sc.Bus().Subscribe(sink.OnEvent)
	RunRemaining(sc, c)
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var tl bytes.Buffer
	if err := sc.Timeline().WriteText(&tl); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return out.String(), tl.String(), fmt.Sprintf("%+v", sc.Report())
}

// forkIdentity asserts the fork of `member` from a checkpoint at `at` is
// byte-identical to the from-scratch run, on both resume paths: in-process
// through ResumeScenario (the image built from the prefix's boot state) and
// from the on-disk format (the image booted from the seed). It returns the
// snapshot read back from disk.
func forkIdentity(t *testing.T, member ScenarioSpec, at time.Duration) *Snapshot {
	t.Helper()
	scratch, err := FromSpec(member)
	if err != nil {
		t.Fatalf("FromSpec(scratch): %v", err)
	}
	wantTrace, wantTL, wantRep := runScenario(t, scratch, func(sc *Scenario) { DriveSpec(sc, member) })
	compare := func(path, gotTrace, gotTL, gotRep string) {
		t.Helper()
		if gotTrace != wantTrace {
			t.Errorf("%s fork: trace diverges from from-scratch run:\n%s", path, firstDiffLine(wantTrace, gotTrace))
		}
		if gotTL != wantTL {
			t.Errorf("%s fork: timeline diverges from from-scratch run:\n%s", path, firstDiffLine(wantTL, gotTL))
		}
		if gotRep != wantRep {
			t.Errorf("%s fork: report diverges:\nscratch: %s\nforked:  %s", path, wantRep, gotRep)
		}
	}

	snap := takeCheckpoint(t, member, at)
	if snap.Boot == nil {
		t.Fatal("an in-process snapshot carries no boot state")
	}
	gotTrace, gotTL, gotRep := runResumed(t, snap, member)
	compare("in-memory", gotTrace, gotTL, gotRep)

	// Round-trip through the on-disk format so the encode/decode path is on
	// the identity-critical path, not just unit-tested.
	path := filepath.Join(t.TempDir(), "ckpt.satinckp")
	if err := WriteCheckpoint(path, snap); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	snap, err = ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if snap.Boot != nil {
		t.Fatal("a snapshot read from disk carries a boot state")
	}
	gotTrace, gotTL, gotRep = runForked(t, snap, member)
	compare("on-disk", gotTrace, gotTL, gotRep)
	return snap
}

// claimOwners counts a snapshot's claims by owner.
func claimOwners(snap *Snapshot) map[string]int {
	owners := map[string]int{}
	for _, c := range snap.State.Claims {
		owners[c.Owner]++
	}
	return owners
}

// firstDiffLine locates the first differing line of two multi-line strings.
func firstDiffLine(want, got string) string {
	w := bytes.Split([]byte(want), []byte("\n"))
	g := bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

// TestForkIdentityFaultFree forks a member identical to the prefix: the
// degenerate (but still load-bearing) case every campaign group contains.
func TestForkIdentityFaultFree(t *testing.T) {
	forkIdentity(t, ckptSpec(45*time.Second, ""), 30*time.Second)
}

// TestForkIdentityDVFSMember forks a member whose DVFS step lands after the
// barrier — the shape campaign prefix groups are made of.
func TestForkIdentityDVFSMember(t *testing.T) {
	forkIdentity(t, ckptSpec(45*time.Second, "dvfs:at=35s,factor=0.8"), 30*time.Second)
}

// TestForkIdentityHotplugMember forks a member with a post-barrier hotplug
// window, exercising SATIN's re-route claims on the suffix side.
func TestForkIdentityHotplugMember(t *testing.T) {
	forkIdentity(t, ckptSpec(60*time.Second, "hotplug:core=1,off=35s,on=50s"), 30*time.Second)
}

// TestForkIdentityFloodWorkload forks a member of a prefix running the
// interrupt-flood workload, whose next SGI burst rides the snapshot as the
// flood's claim next to the six secure-timer claims.
func TestForkIdentityFloodWorkload(t *testing.T) {
	member := ckptSpec(40*time.Second, "dvfs:at=33s,core=2,factor=0.5")
	member.Workload = &SpecWorkload{FloodRate: 200}
	snap := forkIdentity(t, member, 30*time.Second)
	if got, want := claimOwners(snap), map[string]int{"hw.timer": 6, "attack.flood": 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot claims by owner = %v, want %v", got, want)
	}
}

// TestForkIdentityBaselineDefense forks a member of a prefix defended by the
// periodic baseline instead of SATIN: its one pending check is a secure-timer
// claim.
func TestForkIdentityBaselineDefense(t *testing.T) {
	member := ckptSpec(40*time.Second, "dvfs:at=33s,core=2,factor=0.5")
	member.Defense = SpecDefense{Kind: "baseline", Baseline: &SpecBaselineConfig{Period: SpecDuration(8 * time.Second)}}
	snap := forkIdentity(t, member, 30*time.Second)
	if got, want := claimOwners(snap), map[string]int{"hw.timer": 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot claims by owner = %v, want %v", got, want)
	}
}

// TestForkMidHideWindow checkpoints inside an evader freeze window: after a
// comparer flagged a core (suspect) but before the trace was wiped (hidden).
// The hide countdown must ride the snapshot as a claim and fire in the fork
// exactly as it would have. The window is located from a deterministic
// from-scratch run of the prefix rather than hard-coded, so recalibrating the
// perf model cannot silently move the test off the window.
func TestForkMidHideWindow(t *testing.T) {
	member := ckptSpec(45*time.Second, "")
	probe, err := FromSpec(member)
	if err != nil {
		t.Fatalf("FromSpec(probe): %v", err)
	}
	DriveSpec(probe, member)
	// Candidate windows: each suspect followed by a later hidden event. Not
	// every suspect starts a hide (one arriving while the evader is already
	// hidden or reinstalling does not), so probe candidates until a snapshot
	// actually carries the countdown claim.
	var candidates []time.Duration
	events := probe.Timeline().Events()
	for i, e := range events {
		if e.Kind != "suspect" || e.At < 20*time.Second {
			continue
		}
		for _, h := range events[i+1:] {
			if h.Kind == "hidden" {
				if h.At > e.At {
					candidates = append(candidates, e.At+(h.At-e.At)/2)
				}
				break
			}
		}
	}
	if len(candidates) == 0 {
		t.Fatal("no suspect→hidden window found after 20s; cannot place the barrier")
	}
	var barrier time.Duration
	for _, cand := range candidates {
		snap := takeCheckpoint(t, member, cand)
		for _, c := range snap.State.Claims {
			if c.Name == "fast-evader-hide" {
				barrier = cand
			}
		}
		if barrier != 0 {
			break
		}
	}
	if barrier == 0 {
		t.Fatalf("none of %d candidate barriers landed mid hide window", len(candidates))
	}
	forkIdentity(t, member, barrier)
}

// TestForkIdentityHashCacheOff resumes a checkpoint taken with the
// incremental hash cache disabled — the cache-enabled flag is part of both
// the checkpoint key and the checker's restore contract.
func TestForkIdentityHashCacheOff(t *testing.T) {
	off := false
	member := ckptSpec(45*time.Second, "dvfs:at=35s,factor=0.8")
	member.HashCache = &off
	forkIdentity(t, member, 30*time.Second)
}

// TestForkIdentitySyncGuardBypassed forks a member whose sync guard is
// installed and bypassed. The guard's trusted boot recaptures the trusted
// image, so this is where a member built from a shared boot state takes a
// trusted page table of its own (copies of the pages the guard wrote, the
// boot's pages elsewhere) and folds its own golden table from it.
func TestForkIdentitySyncGuardBypassed(t *testing.T) {
	member := ckptSpec(45*time.Second, "dvfs:at=35s,factor=0.8")
	member.Guard = "bypassed"
	forkIdentity(t, member, 30*time.Second)
}

// TestCheckpointSupportGating pins the v1 protocol's refusals, including the
// issue's DVFS-straddles-the-checkpoint case that campaign grouping falls
// back on.
func TestCheckpointSupportGating(t *testing.T) {
	base := ckptSpec(45*time.Second, "")
	cases := []struct {
		name string
		mut  func(*ScenarioSpec)
		at   time.Duration
		want bool // supported?
	}{
		{"clean", func(s *ScenarioSpec) {}, 30 * time.Second, true},
		{"dvfs after barrier", func(s *ScenarioSpec) { s.Faults = "dvfs:at=35s,factor=0.8" }, 30 * time.Second, true},
		{"dvfs straddles barrier", func(s *ScenarioSpec) { s.Faults = "dvfs:at=25s,factor=0.8" }, 30 * time.Second, false},
		{"jitter plan", func(s *ScenarioSpec) { s.Faults = "jitter:0.1" }, 30 * time.Second, false},
		{"thread evader", func(s *ScenarioSpec) { s.Evader.Kind = "thread" }, 30 * time.Second, false},
		{"observability off", func(s *ScenarioSpec) { v := false; s.Observability = &v }, 30 * time.Second, false},
		{"profiling on", func(s *ScenarioSpec) { v := true; s.Profiling = &v }, 30 * time.Second, false},
		{"horizon at barrier", func(s *ScenarioSpec) {}, 45 * time.Second, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base.Clone()
			tc.mut(&s)
			err := CheckpointSupported(s, tc.at)
			if tc.want && err != nil {
				t.Errorf("CheckpointSupported = %v, want supported", err)
			}
			if !tc.want && err == nil {
				t.Errorf("CheckpointSupported accepted an unsupported shape")
			}
		})
	}
}

// TestCampaignForkInvariance runs one campaign twice — shared-prefix forking
// off and on — and requires byte-identical finalized result files. The fault
// axis is all forkable plans, so the forked run groups each seed's cells
// behind one prefix; the group trial must still reproduce the cell-by-cell
// bytes exactly.
func TestCampaignForkInvariance(t *testing.T) {
	tmpl := ckptSpec(45*time.Second, "")
	c := campaign.Spec{
		Version:  campaign.CurrentVersion,
		Name:     "fork-invariance",
		Scenario: &tmpl,
		Faults: []string{
			"",
			"dvfs:at=35s,factor=0.8",
			"dvfs:at=40s,factor=1.2",
			"hotplug:core=1,off=36s,on=42s",
		},
		Seeds: campaign.SeedRange{Base: 1, Count: 2},
	}
	runBytes := func(opt campaign.RunOptions) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "fork.result")
		res, err := campaign.Run(context.Background(), c, path, opt)
		if err != nil {
			t.Fatalf("campaign.Run: %v", err)
		}
		if !res.Finalized {
			t.Fatal("campaign did not finalize")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	plain := runBytes(campaign.RunOptions{Workers: 4, SpecTrial: RunSpecTrial})

	// Group trials run on the campaign's workers at once, so their counters
	// are locked; CellDone calls are serialized by the executor.
	var mu sync.Mutex
	groups := 0
	largest := 0
	forkedCells := 0
	forked := runBytes(campaign.RunOptions{
		Workers:   4,
		SpecTrial: RunSpecTrial,
		GroupKey:  CheckpointGroupKey,
		GroupTrial: func(ctx context.Context, members []ScenarioSpec) []campaign.GroupResult {
			mu.Lock()
			groups++
			largest = max(largest, len(members))
			mu.Unlock()
			return RunCheckpointGroup(ctx, members)
		},
		CellDone: func(e campaign.CellEvent) {
			if e.Forked {
				forkedCells++
			}
		},
	})
	if groups == 0 {
		t.Fatal("forking enabled but no group was ever executed")
	}
	if largest != len(c.Faults) {
		t.Errorf("largest group has %d members, want %d (one per fault-axis value)", largest, len(c.Faults))
	}
	if want := len(c.Faults) * c.Seeds.Count; forkedCells != want {
		t.Errorf("%d cells report a fork, want all %d", forkedCells, want)
	}
	if !bytes.Equal(plain, forked) {
		t.Errorf("finalized campaign bytes differ between forking off (%d bytes) and on (%d bytes)", len(plain), len(forked))
	}
}

// TestCheckpointBytesPinned pins the SATINCKP bytes of the committed
// checkpoint-smoke prefix, checkpointed at its 30 s horizon as satin-sim
// -checkpoint-out does. The digest moves with any change to what a snapshot
// captures, to its encoding, or to the prefix run itself.
func TestCheckpointBytesPinned(t *testing.T) {
	data, err := os.ReadFile("testdata/checkpoint/prefix.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CheckpointKey(s)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sc.Checkpoint(time.Duration(s.Run.For), key)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 377746, "1e06bc1ea3131c94d18b79540f7b07faca71b93569ce1bf23b7a896a7a015161"
	if sum := fmt.Sprintf("%x", sha256.Sum256(enc)); len(enc) != wantLen || sum != wantSum {
		t.Errorf("prefix checkpoint encodes to %d bytes with sha256 %s, want %d bytes with %s", len(enc), sum, wantLen, wantSum)
	}
}

// TestRestoreRefusesBadClaims feeds RestoreSnapshot snapshots whose claims
// no capture produces. Each must be refused with an error, never a panic: a
// claim before the snapshot's instant or out of firing order, an unknown
// owner, a mismatched name, a kept claim, a second pending event where a
// component holds at most one, and a claim its owner would re-arm under
// another key.
func TestRestoreRefusesBadClaims(t *testing.T) {
	member := ckptSpec(45*time.Second, "")
	snap := takeCheckpoint(t, member, 30*time.Second)
	claims := snap.State.Claims
	if len(claims) < 2 {
		t.Fatalf("snapshot has %d claims; the cases need two", len(claims))
	}
	// appendAfter appends claims that fire after every captured one, in
	// firing order.
	appendAfter := func(extra ...simclock.Claim) func([]simclock.Claim) []simclock.Claim {
		return func(c []simclock.Claim) []simclock.Claim {
			last := c[len(c)-1]
			for i, x := range extra {
				x.When = last.When + simclock.Time(i+1)
				x.Seq = last.Seq + uint64(i+1)
				c = append(c, x)
			}
			return c
		}
	}
	evader := func(key int64, name string) simclock.Claim {
		return simclock.Claim{Owner: "attack.fastevader", Key: key, Name: name}
	}
	wake := simclock.Claim{Owner: "core.satin", Key: 0, Name: "satin-reroute-slot0"}
	cases := []struct {
		name   string
		mutate func([]simclock.Claim) []simclock.Claim
		want   string
	}{
		{"claim before the instant", func(c []simclock.Claim) []simclock.Claim { c[0].When = 1; return c }, "precedes the snapshot instant"},
		{"out of firing order", func(c []simclock.Claim) []simclock.Claim { c[0], c[1] = c[1], c[0]; return c }, "out of firing order"},
		{"unknown owner", func(c []simclock.Claim) []simclock.Claim { c[0].Owner = "nobody"; return c }, "unknown owner"},
		{"mismatched name", func(c []simclock.Claim) []simclock.Claim { c[0].Name = "secure-timer-core9"; return c }, "timer claim names"},
		{"kept claim", func(c []simclock.Claim) []simclock.Claim { c[0].Kept = true; return c }, "kept claim"},
		{"second timer fire", func(c []simclock.Claim) []simclock.Claim { return appendAfter(c[0])(c) }, "already has a pending fire event"},
		{"second detection", appendAfter(evader(0, "fast-evader-detect"), evader(0, "fast-evader-detect")), "already has a pending detection"},
		{"second hide countdown", appendAfter(evader(-1, "fast-evader-hide"), evader(-1, "fast-evader-hide")), "hide countdown already pending"},
		{"second reinstall countdown", appendAfter(evader(-1, "fast-evader-reinstall"), evader(-1, "fast-evader-reinstall")), "reinstall countdown already pending"},
		{"second re-routed wake", appendAfter(wake, wake), "already has a re-routed wake"},
		{"hide countdown under a core key", appendAfter(evader(3, "fast-evader-hide")), "does not match the snapshot's claim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *snap
			bad.State.Claims = tc.mutate(append([]simclock.Claim(nil), claims...))
			_, _, err := ResumeScenario(&bad, member)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ResumeScenario = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestResumeRejectsForeignSpec pins the prefix-compatibility gate: a member
// whose checkpoint key differs (here by seed) must not resume.
func TestResumeRejectsForeignSpec(t *testing.T) {
	member := ckptSpec(45*time.Second, "")
	snap := takeCheckpoint(t, member, 30*time.Second)
	foreign := member.Clone()
	foreign.Seed = 2
	if _, _, err := ResumeScenario(snap, foreign); err == nil {
		t.Fatal("ResumeScenario accepted a spec with a different checkpoint key")
	}
	if _, _, err := ResumeScenario(snap, member); err != nil {
		t.Fatalf("ResumeScenario rejected the matching member: %v", err)
	}
}

// TestResumeRejectsForeignBootState: a boot state filled from another seed
// is an error at construction, never silently used.
func TestResumeRejectsForeignBootState(t *testing.T) {
	member := ckptSpec(45*time.Second, "")
	snap := takeCheckpoint(t, member, 30*time.Second)
	other := member.Clone()
	other.Seed = 2
	sc, err := FromSpec(other)
	if err != nil {
		t.Fatal(err)
	}
	foreign := *snap
	foreign.Boot = sc.Image().Boot()
	if _, _, err := ResumeScenario(&foreign, member); err == nil {
		t.Fatal("ResumeScenario built a member from a boot state of another seed")
	}
}

// TestResumeConcurrentFromOneSnapshot resumes several members from one
// in-process snapshot on parallel goroutines, as a campaign's workers may.
// Run under -race, it checks that the shared boot state is only read and its
// memo only touched under the lock; every member must still reproduce its
// from-scratch trial.
func TestResumeConcurrentFromOneSnapshot(t *testing.T) {
	faults := []string{"", "dvfs:at=35s,factor=0.8", "dvfs:at=40s,factor=1.2", "hotplug:core=1,off=36s,on=42s"}
	snap := takeCheckpoint(t, ckptSpec(45*time.Second, ""), 30*time.Second)
	want := make([]SweepMetrics, len(faults))
	for i, f := range faults {
		m, err := RunSpecTrial(ckptSpec(45*time.Second, f))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	got := make([]SweepMetrics, len(faults))
	errs := make([]error, len(faults))
	var wg sync.WaitGroup
	for i, f := range faults {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, c, err := ResumeScenario(snap, ckptSpec(45*time.Second, f))
			if err != nil {
				errs[i] = err
				return
			}
			RunRemaining(sc, c)
			got[i] = specTrialMetrics(c, sc.Report())
		}()
	}
	wg.Wait()
	for i := range faults {
		if errs[i] != nil {
			t.Errorf("member %q: %v", faults[i], errs[i])
			continue
		}
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("member %q: resumed %v, from scratch %v", faults[i], got[i], want[i])
		}
	}
}
