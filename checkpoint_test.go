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
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"satin/internal/campaign"
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
// from the on-disk format (the image booted from the seed).
func forkIdentity(t *testing.T, member ScenarioSpec, at time.Duration) {
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
// installed and bypassed. The guard's trusted boot recaptures the pristine
// image, so this is where a member built from a shared boot state must take
// a private pristine copy and hash its own golden table.
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
