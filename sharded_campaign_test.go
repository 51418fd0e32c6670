package satin

// Sharded execution against the committed corpus: planning the smoke
// campaign into shards, running each shard as its own session, and merging
// must land byte-for-byte on the same golden a single process produces.
// Plus the kill-inside-a-group resume contract: a session truncated by
// MaxCells (grouping disabled) can leave a checkpoint group half done, and
// the forked resume must still finalize to the uninterrupted bytes.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"satin/internal/campaign"
	"satin/internal/serve"
	"satin/internal/shard"
)

// TestShardedMergeReproducesGolden: smoke campaign over 1..4 shards, each
// shard its own session, merged — always the committed golden bytes.
func TestShardedMergeReproducesGolden(t *testing.T) {
	c := smokeCampaign(t)
	canon, err := campaign.Canonicalize(c)
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	cells, err := campaign.Cells(canon)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	golden := smokeGolden(t)
	for _, k := range []int{1, 2, 3, 4} {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			plan, err := shard.PlanCells(cells, k, CheckpointGroupKey)
			if err != nil {
				t.Fatalf("PlanCells: %v", err)
			}
			dir := t.TempDir()
			var paths []string
			for si, only := range plan.Shards {
				path := filepath.Join(dir, fmt.Sprintf("shard-%d.result", si))
				paths = append(paths, path)
				res, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{
					Workers:    2,
					Only:       only,
					SpecTrial:  RunSpecTrial,
					GroupKey:   CheckpointGroupKey,
					GroupTrial: RunCheckpointGroup,
				})
				if err != nil {
					t.Fatalf("shard %d: %v", si, err)
				}
				if res.Finalized {
					t.Fatalf("shard %d session finalized", si)
				}
			}
			merged := filepath.Join(dir, "merged.result")
			n, err := campaign.Merge(merged, paths...)
			if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			if n != len(cells) {
				t.Fatalf("Merge combined %d cells, want %d", n, len(cells))
			}
			got, err := os.ReadFile(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("merged %d-shard result drifted from testdata/campaigns/smoke.result.golden", k)
			}
		})
	}
}

// TestShardedServeGoldenWhileScraped: the full coordinator/worker protocol
// drains the smoke campaign while a scraper hammers /metrics and /healthz
// the whole time — telemetry is a side channel, so the merged result must
// still be the committed golden bytes.
func TestShardedServeGoldenWhileScraped(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "campaigns", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Options{DataDir: t.TempDir(), GroupKey: CheckpointGroupKey})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()

	st, err := client.Submit(ctx, data, 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			if err := client.Healthz(ctx); err != nil {
				t.Errorf("Healthz during run: %v", err)
			}
			if _, err := client.MetricsText(ctx); err != nil {
				t.Errorf("MetricsText during run: %v", err)
			}
			n++
		}
	}()

	err = serve.RunWorker(ctx, client, serve.WorkerOptions{
		Name:       "scraped-worker",
		Dir:        t.TempDir(),
		Trial:      RunSpecTrial,
		GroupKey:   CheckpointGroupKey,
		GroupTrial: RunCheckpointGroup,
		Workers:    2,
		Poll:       time.Millisecond,
	})
	close(stop)
	n := <-scraped
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if n == 0 {
		t.Fatal("scraper never completed a pass; the invariance claim was not exercised")
	}

	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !bytes.Equal(got, smokeGolden(t)) {
		t.Errorf("scrape-concurrent sharded result drifted from testdata/campaigns/smoke.result.golden (%d scrapes)", n)
	}
}

// TestForkResumeAfterKillInsideGroup: leg 1 runs under MaxCells — grouping
// is disabled there, so the kill can land inside what the forked executor
// would treat as one group, leaving it half-checkpointed. The resume runs
// with forking on, so the group's remaining members fork as a partial
// group; the finalized file must still be byte-identical to an
// uninterrupted forked run (and an uninterrupted plain run).
func TestForkResumeAfterKillInsideGroup(t *testing.T) {
	tmpl := ckptSpec(45*time.Second, "")
	c := campaign.Spec{
		Version:  campaign.CurrentVersion,
		Name:     "fork-resume-kill",
		Scenario: &tmpl,
		Faults: []string{
			"",
			"dvfs:at=35s,factor=0.8",
			"dvfs:at=40s,factor=1.2",
			"hotplug:core=1,off=36s,on=42s",
		},
		Seeds: campaign.SeedRange{Base: 1, Count: 2},
	}

	uninterrupted := filepath.Join(t.TempDir(), "full.result")
	res, err := campaign.Run(context.Background(), c, uninterrupted, campaign.RunOptions{
		Workers:    2,
		SpecTrial:  RunSpecTrial,
		GroupKey:   CheckpointGroupKey,
		GroupTrial: RunCheckpointGroup,
	})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if !res.Finalized {
		t.Fatal("uninterrupted run did not finalize")
	}
	want, err := os.ReadFile(uninterrupted)
	if err != nil {
		t.Fatal(err)
	}

	// The campaign has 2 seed groups of 4 cells each; killing after 2 cells
	// lands mid-way through the first group.
	path := filepath.Join(t.TempDir(), "killed.result")
	first, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{
		Workers:    1,
		MaxCells:   2,
		SpecTrial:  RunSpecTrial,
		GroupKey:   CheckpointGroupKey,
		GroupTrial: RunCheckpointGroup,
	})
	if err != nil {
		t.Fatalf("truncated run: %v", err)
	}
	if first.Finalized || first.NewlyDone != 2 {
		t.Fatalf("truncated run: finalized %v, newly done %d (want unfinalized, 2)", first.Finalized, first.NewlyDone)
	}

	// Group trials run on both workers at once, so the bookkeeping is
	// locked.
	var mu sync.Mutex
	groups := 0
	var groupSizes []int
	second, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{
		Workers:   2,
		SpecTrial: RunSpecTrial,
		GroupKey:  CheckpointGroupKey,
		GroupTrial: func(ctx context.Context, members []ScenarioSpec) []campaign.GroupResult {
			mu.Lock()
			groups++
			groupSizes = append(groupSizes, len(members))
			mu.Unlock()
			return RunCheckpointGroup(ctx, members)
		},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !second.Finalized {
		t.Fatal("resume did not finalize")
	}
	if second.NewlyDone != 6 {
		t.Fatalf("resume completed %d cells, want the remaining 6", second.NewlyDone)
	}
	if groups == 0 {
		t.Fatal("resume never forked a group despite forking enabled")
	}
	// The interrupted group resumes as a partial group (its remaining
	// members), not re-running the checkpointed ones.
	for _, n := range groupSizes {
		if n > 4 {
			t.Fatalf("resume forked a %d-member group in a 4-per-group campaign", n)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("kill-inside-group resume drifted from uninterrupted forked bytes")
	}
}
