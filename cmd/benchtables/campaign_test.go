package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"satin"
	"satin/internal/campaign"
)

// miniCampaign is a fast real-simulation campaign: 2 evaders × 1 seed, four
// SATIN rounds each.
const miniCampaign = `{
  "version": 1,
  "name": "mini",
  "scenario": {
    "version": 1,
    "seed": 1,
    "defense": {"kind": "satin", "satin": {"tgoal": "4s", "max_rounds": 4}},
    "evader": {"kind": "fast"},
    "run": {"to_completion": true}
  },
  "grid": [{"path": "evader.kind", "values": ["fast", "none"]}],
  "seeds": {"base": 1, "count": 1}
}`

func writeMiniCampaign(t *testing.T) (campaignPath, resultPath string) {
	t.Helper()
	dir := t.TempDir()
	campaignPath = filepath.Join(dir, "mini.json")
	if err := os.WriteFile(campaignPath, []byte(miniCampaign), 0o644); err != nil {
		t.Fatal(err)
	}
	return campaignPath, filepath.Join(dir, "mini.result")
}

// TestCampaignRunsAndResumes: -campaign executes the grid, checkpoints with
// -campaign-max-cells, resumes to completion, and renders one sweep per
// combination.
func TestCampaignRunsAndResumes(t *testing.T) {
	campaignPath, resultPath := writeMiniCampaign(t)
	var out bytes.Buffer
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", resultPath, "-campaign-max-cells", "1"}, &out); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if !strings.Contains(out.String(), "campaign checkpointed: 1/2 cells") {
		t.Fatalf("partial run output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", resultPath}, &out); err != nil {
		t.Fatalf("resume: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"=== Campaign mini — 2/2 cells",
		"-- evader.kind=fast --",
		"-- evader.kind=none --",
		"campaign complete: 2 cells finalized",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("resume output missing %q:\n%s", want, text)
		}
	}
}

// TestCampaignFlagValidation: the campaign-shaping flags demand -campaign,
// and a campaign run rejects every experiment and sweep flag by name.
func TestCampaignFlagValidation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-campaign-out", "x.result"}, &out)
	if err == nil || !strings.Contains(err.Error(), "need -campaign") {
		t.Fatalf("error = %v, want a need-campaign rejection", err)
	}
	err = run([]string{"-campaign-max-cells", "3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "need -campaign") {
		t.Fatalf("error = %v, want a need-campaign rejection", err)
	}

	// The reverse: a campaign run reads no experiment or sweep flag, so
	// setting one is an error naming it, and nothing runs or is written.
	campaignPath, resultPath := writeMiniCampaign(t)
	csvPath := filepath.Join(t.TempDir(), "m.csv")
	err = run([]string{"-campaign", campaignPath, "-campaign-out", resultPath,
		"-seeds", "2", "-metrics-out", csvPath, "-only", "detection"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-metrics-out, -only, -seeds: experiment and sweep flags that -campaign does not read") {
		t.Fatalf("error = %v, want -metrics-out, -only and -seeds named", err)
	}
	for _, path := range []string{csvPath, resultPath} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("rejected campaign run wrote %s (stat: %v)", path, err)
		}
	}
	runFlags := [][]string{
		{"-seed", "7"}, {"-seeds", "2"}, {"-only", "detection"}, {"-detection"}, {"-quick"},
		{"-spec", "clean.json"}, {"-metrics-out", csvPath}, {"-profile-out", "p.txt"},
	}
	for _, flagArgs := range runFlags {
		err := run(append([]string{"-campaign", campaignPath}, flagArgs...), &out)
		want := flagArgs[0] + ": experiment and sweep flags that -campaign does not read"
		if err == nil || err.Error() != want {
			t.Errorf("-campaign %v: error = %v, want %q", flagArgs, err, want)
		}
	}
}

// TestCampaignDefaultResultPath: without -campaign-out the result lands
// next to the campaign file.
func TestCampaignDefaultResultPath(t *testing.T) {
	campaignPath, _ := writeMiniCampaign(t)
	var out bytes.Buffer
	if err := run([]string{"-campaign", campaignPath}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	derived := strings.TrimSuffix(campaignPath, ".json") + ".result"
	if _, err := os.Stat(derived); err != nil {
		t.Fatalf("derived result path: %v", err)
	}
}

// TestRateETA: the progress throughput suffix guards its divisions and
// drops the ETA once everything is done.
func TestRateETA(t *testing.T) {
	if got := rateETA(0, 10, time.Second); got != "" {
		t.Fatalf("rateETA(0, ...) = %q, want empty", got)
	}
	if got := rateETA(3, 10, 0); got != "" {
		t.Fatalf("rateETA(..., 0) = %q, want empty", got)
	}
	got := rateETA(5, 10, 2*time.Second)
	if !strings.Contains(got, "2.5 cells/s") || !strings.Contains(got, "ETA 2s") {
		t.Fatalf("rateETA(5, 10, 2s) = %q", got)
	}
	finished := rateETA(10, 10, 4*time.Second)
	if !strings.Contains(finished, "2.5 cells/s") || strings.Contains(finished, "ETA") {
		t.Fatalf("rateETA(10, 10, 4s) = %q", finished)
	}
	// Sub-second elapsed must extrapolate, not truncate to a zero rate.
	subSec := rateETA(1, 4, 100*time.Millisecond)
	if !strings.Contains(subSec, "10.0 cells/s") || !strings.Contains(subSec, "ETA 300ms") {
		t.Fatalf("rateETA(1, 4, 100ms) = %q", subSec)
	}
	// Overshoot (more done than planned, e.g. a resumed run re-counting)
	// still drops the ETA instead of printing a negative one.
	over := rateETA(12, 10, 4*time.Second)
	if !strings.Contains(over, "3.0 cells/s") || strings.Contains(over, "ETA") {
		t.Fatalf("rateETA(12, 10, 4s) = %q", over)
	}
	// Huge totals stay finite: a week-long ETA is rendered, not overflowed.
	huge := rateETA(1, 1_000_000, time.Second)
	if !strings.Contains(huge, "1.0 cells/s") || !strings.Contains(huge, "ETA 277h46m39s") {
		t.Fatalf("rateETA(1, 1e6, 1s) = %q", huge)
	}
}

// TestCampaignProgressShowsThroughput: -progress campaign lines carry the
// cells/sec rate.
func TestCampaignProgressShowsThroughput(t *testing.T) {
	campaignPath, resultPath := writeMiniCampaign(t)
	var out, progress bytes.Buffer
	if err := runWith([]string{"-campaign", campaignPath, "-campaign-out", resultPath, "-progress"}, &out, &progress); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := progress.String()
	if !strings.Contains(text, "campaign: 2/2 in ") || !strings.Contains(text, "cells/s") {
		t.Fatalf("progress output lacks throughput:\n%s", text)
	}
}

// TestCampaignProgressElapsedIsSessionTime: T in "campaign: d/t in T" is
// the time since the session started, not one cell's wall time, so it
// never decreases and the last line covers most of a serial run.
func TestCampaignProgressElapsedIsSessionTime(t *testing.T) {
	campaignPath := filepath.Join("..", "..", "testdata", "campaigns", "smoke.json")
	resultPath := filepath.Join(t.TempDir(), "smoke.result")
	var out, progress bytes.Buffer
	start := time.Now()
	err := runWith([]string{"-campaign", campaignPath, "-campaign-out", resultPath,
		"-workers", "1", "-progress"}, &out, &progress)
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := regexp.MustCompile(`(?m)^campaign: \d+/16 in (\S+)`).FindAllStringSubmatch(progress.String(), -1)
	if len(lines) != 16 {
		t.Fatalf("got %d progress lines, want 16:\n%s", len(lines), progress.String())
	}
	var prev time.Duration
	for _, m := range lines {
		elapsed, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatalf("progress line %q: %v", m[0], err)
		}
		if elapsed < prev {
			t.Fatalf("elapsed went %v -> %v at %q", prev, elapsed, m[0])
		}
		prev = elapsed
	}
	if prev < wall/2 {
		t.Fatalf("last progress line says %v of a %v run", prev, wall)
	}
}

// TestCampaignRendersFinalizedFile: -campaign over a finalized file that
// campaign.Merge built from two shard sessions — what satin-serve -result
// downloads — runs no cell, prints what the local run printed, and leaves
// the file byte-identical.
func TestCampaignRendersFinalizedFile(t *testing.T) {
	campaignPath, localPath := writeMiniCampaign(t)
	var localOut bytes.Buffer
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", localPath}, &localOut); err != nil {
		t.Fatalf("local run: %v", err)
	}

	c, err := campaign.Parse([]byte(miniCampaign))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var shards []string
	for i := 0; i < 2; i++ {
		shard := filepath.Join(dir, fmt.Sprintf("shard%d.result", i))
		if _, err := campaign.Run(context.Background(), c, shard, campaign.RunOptions{
			SpecTrial: satin.RunSpecTrial, Only: []int{i},
		}); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shards = append(shards, shard)
	}
	mergedPath := filepath.Join(dir, "merged.result")
	if _, err := campaign.Merge(mergedPath, shards...); err != nil {
		t.Fatalf("merge: %v", err)
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	local, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, local) {
		t.Fatal("merged shard result differs from the local run's bytes")
	}

	var out, progress bytes.Buffer
	if err := runWith([]string{"-campaign", campaignPath, "-campaign-out", mergedPath, "-progress"}, &out, &progress); err != nil {
		t.Fatalf("render: %v", err)
	}
	if want := strings.ReplaceAll(localOut.String(), localPath, mergedPath); out.String() != want {
		t.Fatalf("render output:\n%s\nwant the local run's:\n%s", out.String(), want)
	}
	if strings.Contains(progress.String(), "campaign: cell ") {
		t.Fatalf("rendering a finalized file ran cells:\n%s", progress.String())
	}
	after, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, merged) {
		t.Fatal("rendering rewrote the finalized file")
	}
}
