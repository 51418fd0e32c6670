package satin

// The campaign-corpus contract, in-process: the committed smoke campaign,
// run through the real simulation trial, reproduces its committed result
// file byte for byte — at any worker count, and across a kill/resume.
// `make campaign-corpus-check` enforces the same contract through the
// benchtables binary.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"satin/internal/campaign"
)

func smokeCampaign(t *testing.T) campaign.Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "campaigns", "smoke.json"))
	if err != nil {
		t.Fatalf("reading smoke campaign: %v", err)
	}
	c, err := campaign.Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return c
}

func smokeGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "campaigns", "smoke.result.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	return want
}

// TestCampaignCorpusReproducesGolden runs the smoke campaign cell by cell
// and grouped. Every smoke cell runs to completion, which the checkpoint
// protocol does not cover, so grouped cells share their seed's boot and
// none reports a fork.
func TestCampaignCorpusReproducesGolden(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		t.Run(fmt.Sprintf("grouped=%v", grouped), func(t *testing.T) {
			c := smokeCampaign(t)
			path := filepath.Join(t.TempDir(), "smoke.result")
			forked := 0
			opt := campaign.RunOptions{
				Workers:   4,
				SpecTrial: RunSpecTrial,
				CellDone: func(e campaign.CellEvent) {
					if e.Forked {
						forked++
					}
				},
			}
			if grouped {
				opt.GroupKey = CheckpointGroupKey
				opt.GroupTrial = RunCheckpointGroup
			}
			res, err := campaign.Run(context.Background(), c, path, opt)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Finalized {
				t.Fatal("smoke campaign did not finalize")
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, smokeGolden(t)) {
				t.Errorf("campaign run drifted from testdata/campaigns/smoke.result.golden (%d bytes vs %d); regenerate with benchtables -campaign if the drift is intentional", len(got), len(smokeGolden(t)))
			}
			if forked != 0 {
				t.Errorf("%d smoke cells report a fork, want 0", forked)
			}
		})
	}
}

// TestCampaignCorpusResumeIdentity: stopping the smoke campaign part-way
// and resuming with a different worker count still lands exactly on the
// committed golden.
func TestCampaignCorpusResumeIdentity(t *testing.T) {
	c := smokeCampaign(t)
	path := filepath.Join(t.TempDir(), "smoke.result")
	first, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{
		Workers:   8,
		MaxCells:  7,
		SpecTrial: RunSpecTrial,
	})
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if first.Finalized {
		t.Fatal("partial run finalized early")
	}
	second, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{
		Workers:   1,
		SpecTrial: RunSpecTrial,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !second.Finalized {
		t.Fatal("resume did not finalize")
	}
	if second.NewlyDone != len(second.Results)-7 {
		t.Fatalf("resume reran cells: newly done %d of %d total", second.NewlyDone, len(second.Results))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, smokeGolden(t)) {
		t.Errorf("resumed campaign drifted from the committed golden")
	}
}
