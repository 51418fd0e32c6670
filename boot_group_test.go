package satin

// Boot groups: campaign cells the checkpoint protocol does not cover share
// their seed's kernel boot (CheckpointGroupKey's boot key, executed by
// RunCheckpointGroup). Grouping must never move a result byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"satin/internal/campaign"
	"satin/internal/mem"
	"satin/internal/obs"
)

// bootSpec is the smoke campaign's template at seed: a bounded SATIN run
// against the fast evader, driven to completion, which the checkpoint
// protocol does not cover.
func bootSpec(seed uint64) ScenarioSpec {
	return ScenarioSpec{
		Version: ScenarioSpecVersion,
		Seed:    seed,
		Defense: SpecDefense{Kind: "satin", SATIN: &SpecSATINConfig{Tgoal: SpecDuration(19 * time.Second), MaxRounds: 19}},
		Evader:  SpecEvader{Kind: "fast"},
		Run:     SpecRun{ToCompletion: true},
	}
}

// bootShapes vary bootSpec along every grid value a campaign may cross
// with one seed; none of them is forkable.
var bootShapes = []struct {
	name string
	mut  func(*ScenarioSpec)
}{
	{"fast evader", func(*ScenarioSpec) {}},
	{"no evader", func(s *ScenarioSpec) { s.Evader.Kind = "none" }},
	{"thread evader", func(s *ScenarioSpec) {
		s.Evader.Kind = "thread"
		s.Run = SpecRun{For: SpecDuration(2 * time.Second)}
	}},
	{"max rounds", func(s *ScenarioSpec) { s.Defense.SATIN.MaxRounds = 38 }},
	{"faults", func(s *ScenarioSpec) { s.Faults = "scale:2" }},
	{"guard on", func(s *ScenarioSpec) { s.Guard = "on" }},
	{"guard bypassed", func(s *ScenarioSpec) { s.Guard = "bypassed" }},
	{"profiling", func(s *ScenarioSpec) { v := true; s.Profiling = &v }},
	{"observability off", func(s *ScenarioSpec) { v := false; s.Observability = &v }},
	{"hash cache off", func(s *ScenarioSpec) { v := false; s.HashCache = &v }},
}

// TestBootGroupKey: every non-forkable shape of a seed shares one key, no
// two seeds share one, and a forkable spec keeps its checkpoint key.
func TestBootGroupKey(t *testing.T) {
	var seedKey string
	for _, sh := range bootShapes {
		s := bootSpec(1)
		sh.mut(&s)
		if CheckpointSupported(s, time.Nanosecond) == nil {
			t.Fatalf("%s: shape is forkable, want a boot group", sh.name)
		}
		key, ok := CheckpointGroupKey(s)
		if !ok {
			t.Fatalf("%s: no group key", sh.name)
		}
		if seedKey == "" {
			seedKey = key
		}
		if key != seedKey {
			t.Errorf("%s: key %q, want the seed's boot key %q", sh.name, key, seedKey)
		}
		other := s.Clone()
		other.Seed = 2
		if okey, _ := CheckpointGroupKey(other); okey == key {
			t.Errorf("%s: seeds 1 and 2 share key %q", sh.name, key)
		}
	}

	forkable := ckptSpec(45*time.Second, "dvfs:at=35s,factor=0.8")
	key, ok := CheckpointGroupKey(forkable)
	ckey, err := CheckpointKey(forkable)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || key != string(ckey) {
		t.Errorf("forkable spec: key %q (ok %v), want its checkpoint key %q", key, ok, ckey)
	}
	if key == seedKey {
		t.Error("a checkpoint key equals a boot key")
	}

	invalid := bootSpec(1)
	invalid.Defense.SATIN.MaxRounds = -1
	if _, ok := CheckpointGroupKey(invalid); ok {
		t.Error("a spec that does not canonicalize got a group key")
	}
}

// TestRunCheckpointGroupBootGroup: members that cannot fork, run on one
// shared boot, return exactly what RunSpecTrial returns for each, failures
// included, and none reports a fork. That covers a boot group and a fork
// group whose shared prefix is too short to fork.
func TestRunCheckpointGroupBootGroup(t *testing.T) {
	// The first member fails after its image is built (its areas break the
	// race bound), the second before anything is built (it does not
	// canonicalize).
	bad := bootSpec(3)
	bad.Defense.SATIN.AreaBound = 1000
	invalid := bootSpec(3)
	invalid.Defense.SATIN.MaxRounds = -1
	bootGroup := []ScenarioSpec{bad, invalid}
	for _, sh := range bootShapes {
		s := bootSpec(3)
		sh.mut(&s)
		bootGroup = append(bootGroup, s)
	}
	// A forkable key whose earliest divergence leaves a barrier under the
	// one-second minimum.
	shortPrefix := []ScenarioSpec{
		ckptSpec(1200*time.Millisecond, ""),
		ckptSpec(1200*time.Millisecond, "dvfs:at=1s,factor=0.8"),
	}
	for _, tc := range []struct {
		name    string
		members []ScenarioSpec
	}{{"boot group", bootGroup}, {"short prefix", shortPrefix}} {
		got := RunCheckpointGroup(context.Background(), tc.members)
		if len(got) != len(tc.members) {
			t.Fatalf("%s: got %d results for %d members", tc.name, len(got), len(tc.members))
		}
		for i, m := range tc.members {
			want, wantErr := RunSpecTrial(m)
			if (wantErr == nil) != (got[i].Err == nil) || (wantErr != nil && wantErr.Error() != got[i].Err.Error()) {
				t.Errorf("%s member %d: error %v, want %v", tc.name, i, got[i].Err, wantErr)
			}
			if !reflect.DeepEqual(got[i].Metrics, want) {
				t.Errorf("%s member %d: metrics %v, want %v", tc.name, i, got[i].Metrics, want)
			}
			if got[i].Forked {
				t.Errorf("%s member %d reports a fork", tc.name, i)
			}
		}
		if tc.name == "boot group" && (got[0].Err == nil || got[1].Err == nil) {
			t.Error("the failing members did not fail")
		}
	}
}

// TestWorkerCountInvarianceBootGroups: a campaign mixing fork groups
// (fast/no evader, late DVFS) with boot groups (thread evader, profiling)
// finalizes to the same bytes with grouping off and on, at 1 and 3
// workers, and across a kill followed by a grouped resume. Only the fork
// groups' members report forks.
func TestWorkerCountInvarianceBootGroups(t *testing.T) {
	tmpl := ckptSpec(3*time.Second, "")
	raw := func(vs ...string) []json.RawMessage {
		out := make([]json.RawMessage, len(vs))
		for i, v := range vs {
			out[i] = json.RawMessage(v)
		}
		return out
	}
	c := campaign.Spec{
		Version:  campaign.CurrentVersion,
		Name:     "boot-groups",
		Scenario: &tmpl,
		Grid: []campaign.Axis{
			{Path: "evader.kind", Values: raw(`"fast"`, `"none"`, `"thread"`)},
			{Path: "profiling", Values: raw(`false`, `true`)},
		},
		Faults: []string{"", "dvfs:at=2500ms,factor=0.8"},
		Seeds:  campaign.SeedRange{Base: 1, Count: 2},
	}
	run := func(path string, opt campaign.RunOptions) campaign.RunResult {
		t.Helper()
		opt.SpecTrial = RunSpecTrial
		res, err := campaign.Run(context.Background(), c, path, opt)
		if err != nil {
			t.Fatalf("campaign.Run: %v", err)
		}
		return res
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()

	plain := filepath.Join(dir, "plain.result")
	if res := run(plain, campaign.RunOptions{Workers: 1}); !res.Finalized {
		t.Fatal("ungrouped run did not finalize")
	}
	want := read(plain)

	for _, workers := range []int{1, 3} {
		// Groups run on several workers at once, so largest is locked;
		// CellDone calls are serialized by the executor.
		var mu sync.Mutex
		forked, largest := 0, 0
		path := filepath.Join(dir, fmt.Sprintf("grouped-%d.result", workers))
		res := run(path, campaign.RunOptions{
			Workers:  workers,
			GroupKey: CheckpointGroupKey,
			GroupTrial: func(ctx context.Context, members []ScenarioSpec) []campaign.GroupResult {
				mu.Lock()
				largest = max(largest, len(members))
				mu.Unlock()
				return RunCheckpointGroup(ctx, members)
			},
			CellDone: func(e campaign.CellEvent) {
				if e.Forked {
					forked++
				}
			},
		})
		if !res.Finalized {
			t.Fatalf("workers %d: grouped run did not finalize", workers)
		}
		if !bytes.Equal(read(path), want) {
			t.Errorf("workers %d: grouped bytes differ from ungrouped", workers)
		}
		// fast and none without profiling, 2 fault plans, 2 seeds.
		if forked != 8 {
			t.Errorf("workers %d: %d cells report a fork, want 8", workers, forked)
		}
		// Each seed's boot group: the thread evader, and profiling on.
		if largest != 8 {
			t.Errorf("workers %d: largest group has %d members, want a boot group of 8", workers, largest)
		}
	}

	killed := filepath.Join(dir, "killed.result")
	grouped := campaign.RunOptions{GroupKey: CheckpointGroupKey, GroupTrial: RunCheckpointGroup}
	first := grouped
	first.Workers, first.MaxCells = 2, 5
	if res := run(killed, first); res.Finalized || res.NewlyDone != 5 {
		t.Fatalf("killed run: finalized %v, newly done %d (want unfinalized, 5)", res.Finalized, res.NewlyDone)
	}
	resume := grouped
	resume.Workers = 3
	if res := run(killed, resume); !res.Finalized {
		t.Fatal("grouped resume did not finalize")
	}
	if !bytes.Equal(read(killed), want) {
		t.Error("kill and grouped resume differ from the ungrouped bytes")
	}
}

// TestBootTermsMatchSeedBoot: a member built from a boot state whose chunk
// terms an earlier member of the seed already memoized gives the same
// Report, cache counters, JSONL trace and timeline as the same member
// booted from the seed, or fails to build with the same error. Both fold
// the boot terms for every chunk whose pages are still the boot's, so both
// must also match the member with the hash cache off, which hashes every
// chunk live, in all but the cache counters. The fast evader's rootkit and
// the guard write kernel pages, so those shapes must hash some chunks live.
// The guard refuses the fast evader's hijack, so the guard also runs
// without an evader.
func TestBootTermsMatchSeedBoot(t *testing.T) {
	warm, err := CanonicalizeSpec(bootSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		err           string
		report        Report
		hits, misses  uint64
		trace, events string
	}
	drive := func(t *testing.T, c ScenarioSpec, boot *mem.BootState) (run, *mem.BootState) {
		t.Helper()
		sc, err := fromSpec(c, boot)
		if err != nil {
			return run{err: err.Error()}, nil
		}
		var trace bytes.Buffer
		sink, err := NewStreamSink(&trace, ExportJSONL)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Bus() != nil {
			sc.Bus().Subscribe(sink.OnEvent)
		}
		DriveSpec(sc, c)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		if err := sc.Timeline().WriteText(&events); err != nil {
			t.Fatal(err)
		}
		r := run{report: sc.Report(), trace: trace.String(), events: events.String()}
		r.hits, r.misses = sc.Checker().CacheStats()
		return r, sc.image.Boot()
	}
	shapes := append(bootShapes[:len(bootShapes):len(bootShapes)], struct {
		name string
		mut  func(*ScenarioSpec)
	}{"guard on without evader", func(s *ScenarioSpec) { s.Guard = "on"; s.Evader.Kind = "none" }})
	for _, sh := range shapes {
		if sh.name == "hash cache off" {
			continue
		}
		t.Run(sh.name, func(t *testing.T) {
			s := bootSpec(5)
			sh.mut(&s)
			c, err := CanonicalizeSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			_, boot := drive(t, warm, nil)
			if boot == nil {
				t.Fatal("the warming member did not build")
			}
			off := false
			s.HashCache = &off
			naiveSpec, err := CanonicalizeSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := drive(t, c, boot)
			want, _ := drive(t, c, nil)
			naive, _ := drive(t, naiveSpec, nil)
			if got.err != want.err || got.err != naive.err {
				t.Fatalf("build error from the warmed boot state %q, from the seed %q, with the cache off %q", got.err, want.err, naive.err)
			}
			if want.err != "" {
				return
			}
			scrubbed := func(r Report) Report {
				var rows []obs.Row
				for _, row := range r.Metrics.Rows {
					if !strings.HasPrefix(row.Name, "introspect.cache_") {
						rows = append(rows, row)
					}
				}
				r.Metrics.Rows = rows
				return r
			}
			if !reflect.DeepEqual(scrubbed(got.report), scrubbed(naive.report)) {
				t.Errorf("Report from the warmed boot state:\n%+v\nwith the cache off:\n%+v", got.report, naive.report)
			}
			if got.trace != naive.trace || got.events != naive.events {
				t.Error("trace or timeline differs from the cache-off member's")
			}
			if !reflect.DeepEqual(got.report, want.report) {
				t.Errorf("Report from the warmed boot state:\n%+v\nfrom the seed:\n%+v", got.report, want.report)
			}
			if got.hits != want.hits || got.misses != want.misses {
				t.Errorf("cache %d hits / %d misses from the warmed boot state, %d / %d from the seed", got.hits, got.misses, want.hits, want.misses)
			}
			if want.misses == 0 {
				t.Error("the member recorded no cache misses; no boot term was consulted")
			}
			if got.trace != want.trace {
				t.Error("JSONL trace differs from the seed-booted member's")
			}
			if got.events != want.events {
				t.Error("timeline differs from the seed-booted member's")
			}
		})
	}
}
