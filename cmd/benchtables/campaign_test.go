package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"satin"
	"satin/internal/serve"
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
	for _, mode := range [][]string{{"-campaign", campaignPath}, {"-campaign-worker", "http://127.0.0.1:1"}} {
		for _, flagArgs := range runFlags {
			err := run(append(append([]string{}, mode...), flagArgs...), &out)
			want := flagArgs[0] + ": experiment and sweep flags that " + mode[0] + " does not read"
			if err == nil || err.Error() != want {
				t.Errorf("%v %v: error = %v, want %q", mode, flagArgs, err, want)
			}
		}
	}
	err = run([]string{"-campaign", campaignPath, "-campaign-worker", "http://127.0.0.1:1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "does not combine with -campaign") {
		t.Fatalf("error = %v, want -campaign-worker rejected next to -campaign", err)
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
		"-workers", "1", "-campaign-fork=false", "-progress"}, &out, &progress)
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

// TestCampaignServeRoundTrip: -campaign-serve submits to a coordinator,
// -campaign-worker drains it, and the merged result is byte-identical to
// the local -campaign path.
func TestCampaignServeRoundTrip(t *testing.T) {
	s, err := serve.New(serve.Options{DataDir: t.TempDir(), GroupKey: satin.CheckpointGroupKey})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	campaignPath, _ := writeMiniCampaign(t)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.result")
	servePath := filepath.Join(dir, "served.result")
	var localOut bytes.Buffer
	if err := run([]string{"-campaign", campaignPath, "-campaign-out", localPath}, &localOut); err != nil {
		t.Fatalf("local run: %v", err)
	}

	done := make(chan error, 1)
	var out, progress bytes.Buffer
	go func() {
		done <- runWith([]string{
			"-campaign", campaignPath, "-campaign-serve", ts.URL,
			"-campaign-shards", "2", "-campaign-out", servePath, "-progress",
		}, &out, &progress)
	}()
	for len(s.List()) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	var workerOut bytes.Buffer
	if err := run([]string{"-campaign-worker", ts.URL}, &workerOut); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("campaign-serve: %v", err)
	}
	if !strings.Contains(out.String(), "campaign complete: 2 cells finalized") {
		t.Fatalf("serve output:\n%s", out.String())
	}
	if !strings.Contains(progress.String(), "cells/s") {
		t.Fatalf("serve progress lacks throughput:\n%s", progress.String())
	}
	local, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	served, err := os.ReadFile(servePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, served) {
		t.Fatal("sharded-serve result differs from local run bytes")
	}
}
