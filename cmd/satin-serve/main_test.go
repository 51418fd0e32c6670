package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satin"
	"satin/internal/campaign"
	"satin/internal/profile"
	"satin/internal/serve"
	"satin/internal/telemetry"
)

// smokeCampaign mirrors testdata/campaigns/smoke.json closely enough for a
// CLI round trip while staying fast: 2 fault plans × 2 seeds = 4 cells.
const smokeCampaign = `{
  "version": 1,
  "name": "cli-smoke",
  "scenario": {
    "version": 1,
    "seed": 1,
    "defense": {"kind": "satin", "satin": {"tgoal": "2s", "max_rounds": 2}},
    "evader": {"kind": "fast"},
    "run": {"to_completion": true}
  },
  "faults": ["", "scale:2"],
  "seeds": {"base": 1, "count": 2}
}`

// startServer runs serve mode on an OS-assigned port and returns its base
// URL plus a stop function (closing the listener ends http.Serve cleanly).
func startServer(t *testing.T) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- serveMode(l, t.TempDir(), 30*time.Second, new(bytes.Buffer), telemetry.NopLogger())
	}()
	return "http://" + l.Addr().String(), func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("serveMode: %v", err)
		}
	}
}

// TestCLIRoundTrip drives the full sharded lifecycle through the CLI
// surface: submit, two worker passes, status, watch, result download —
// and requires the downloaded merge to be byte-identical to an in-process
// single-run of the same campaign.
func TestCLIRoundTrip(t *testing.T) {
	url, stop := startServer(t)
	defer stop()

	dir := t.TempDir()
	campaignPath := filepath.Join(dir, "smoke.json")
	if err := os.WriteFile(campaignPath, []byte(smokeCampaign), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-url", url, "-submit", campaignPath, "-shards", "2"}, &out, &out); err != nil {
		t.Fatalf("submit: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "job c1 (cli-smoke): 0/4 cells, 2 shard(s), running") {
		t.Fatalf("submit output:\n%s", out.String())
	}

	// Two sequential worker invocations: the first drains both shards (it
	// loops until no work remains), the second must exit immediately.
	for i := 0; i < 2; i++ {
		var wout bytes.Buffer
		if err := run([]string{"-url", url, "-worker", "-name", "w", "-dir", t.TempDir()}, &wout, &wout); err != nil {
			t.Fatalf("worker pass %d: %v\n%s", i, err, wout.String())
		}
	}

	out.Reset()
	if err := run([]string{"-url", url, "-status"}, &out, &out); err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(out.String(), "4/4 cells, 2 shard(s), finalized") {
		t.Fatalf("status output:\n%s", out.String())
	}
	// The finished job has a wall-clock record, so the straggler summary
	// rides on the same status block.
	if !strings.Contains(out.String(), "stragglers:") {
		t.Fatalf("status output missing straggler summary:\n%s", out.String())
	}

	// -status -json must emit the wire JobStatus verbatim: a script that
	// decodes it into serve.JobStatus sees the same fields the API returns.
	out.Reset()
	if err := run([]string{"-url", url, "-status", "-json"}, &out, &out); err != nil {
		t.Fatalf("status -json: %v", err)
	}
	var jobs []serve.JobStatus
	if err := json.Unmarshal(out.Bytes(), &jobs); err != nil {
		t.Fatalf("status -json output is not JobStatus JSON: %v\n%s", err, out.String())
	}
	if len(jobs) != 1 || jobs[0].ID != "c1" || jobs[0].Done != 4 || !jobs[0].Finalized ||
		len(jobs[0].Shards) != 2 || jobs[0].Stragglers == nil {
		t.Fatalf("status -json round trip = %+v", jobs)
	}

	// The wall-clock timeline must pass the same structural lint as the
	// virtual-time Chrome traces (-lint-chrome machinery).
	tracePath := filepath.Join(dir, "timeline.json")
	out.Reset()
	if err := run([]string{"-url", url, "-timeline", "c1", "-timeline-out", tracePath}, &out, &out); err != nil {
		t.Fatalf("timeline: %v\n%s", err, out.String())
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	n, err := profile.ValidateChromeTrace(bytes.NewReader(traceData))
	if err != nil {
		t.Fatalf("timeline fails chrome lint: %v\n%s", err, traceData)
	}
	// 1 job span + 2 lease spans + 4 cell spans + 1 merge + metadata.
	if n < 8 {
		t.Fatalf("timeline has %d events, want >= 8", n)
	}

	// -metrics probes health and prints the exposition.
	out.Reset()
	if err := run([]string{"-url", url, "-metrics"}, &out, &out); err != nil {
		t.Fatalf("metrics: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"satin_leases_granted_total",
		"satin_uploads_verified_total",
		`satin_merges_total{outcome="ok"} 1`,
		`satin_job_cells_done{job="c1"} 4`,
		"satin_http_request_duration_seconds_bucket",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-url", url, "-watch", "c1"}, &out, &out); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	watch := out.String()
	if strings.Count(watch, "cell ") != 4 || !strings.Contains(watch, "job c1 finalized: 4/4 cells") {
		t.Fatalf("watch output:\n%s", watch)
	}

	mergedPath := filepath.Join(dir, "merged.result")
	out.Reset()
	if err := run([]string{"-url", url, "-result", "c1", "-out", mergedPath}, &out, &out); err != nil {
		t.Fatalf("result: %v", err)
	}

	c, err := campaign.Parse([]byte(smokeCampaign))
	if err != nil {
		t.Fatal(err)
	}
	singlePath := filepath.Join(dir, "single.result")
	if _, err := campaign.Run(context.Background(), c, singlePath, campaign.RunOptions{
		SpecTrial: satin.RunSpecTrial,
	}); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	single, err := os.ReadFile(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, single) {
		t.Fatal("CLI sharded result differs from single-process bytes")
	}
}

// TestCLIOfflineMerge: -merge combines shard files without a server.
func TestCLIOfflineMerge(t *testing.T) {
	c, err := campaign.Parse([]byte(smokeCampaign))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	shardA := filepath.Join(dir, "a.result")
	shardB := filepath.Join(dir, "b.result")
	single := filepath.Join(dir, "single.result")
	for _, s := range []struct {
		path string
		only []int
	}{
		{shardA, []int{0, 1}},
		{shardB, []int{2, 3}},
		{single, nil},
	} {
		if _, err := campaign.Run(context.Background(), c, s.path, campaign.RunOptions{
			SpecTrial: satin.RunSpecTrial, Only: s.only,
		}); err != nil {
			t.Fatalf("run %s: %v", s.path, err)
		}
	}

	merged := filepath.Join(dir, "merged.result")
	var out bytes.Buffer
	if err := run([]string{"-merge", "-out", merged, shardA, shardB}, &out, &out); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !strings.Contains(out.String(), "merged 4 cells from 2 shard file(s)") {
		t.Fatalf("merge output:\n%s", out.String())
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("offline merge differs from single-process bytes")
	}
}

// TestCLIModeValidation: client modes without -url, and incomplete merge
// invocations, fail with usable errors instead of panicking; two modes
// together, or a flag only another mode reads, fail naming the flags.
func TestCLIModeValidation(t *testing.T) {
	cases := [][]string{
		{"-submit", "x.json"},
		{"-worker"},
		{"-watch", "c1"},
		{"-status"},
		{"-result", "c1", "-out", "x"},
		{"-merge"},
		{"-merge", "-out", "x"},
		{"-timeline", "c1"},
		{"-metrics"},
		{"-log-format", "yaml", "-status", "-url", "http://x"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out, &out); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}

	named := []struct {
		args []string
		want string
	}{
		{[]string{"-merge", "-out", "m.result", "-submit", "x.json", "shard.result"},
			"-merge and -submit select different modes"},
		{[]string{"-status", "-worker"}, "-status and -worker select different modes"},
		{[]string{"-url", "http://127.0.0.1:1", "-result", "c1", "-out", "x", "-watch", "c1"},
			"-result and -watch select different modes"},
		{[]string{"-worker", "-shards", "4"}, "-shards is read only by -submit, not by -worker"},
		{[]string{"-submit", "x.json", "-name", "w"}, "-name is read only by -worker, not by -submit"},
		{[]string{"-status", "-dir", "d"}, "-dir is read only by -worker, not by -status"},
		{[]string{"-metrics", "-pool", "2"}, "-pool is read only by -worker, not by -metrics"},
		{[]string{"-submit", "x.json", "-json"}, "-json is read only by -status, not by -submit"},
		{[]string{"-status", "-timeline-out", "t.json"}, "-timeline-out is read only by -timeline, not by -status"},
		{[]string{"-watch", "c1", "-out", "x"}, "-out is read only by -result or -merge, not by -watch"},
		{[]string{"-shards", "4", "-listen", "bad"}, "-shards is read only by -submit, not by server mode"},
		{[]string{"-status", "-listen", "127.0.0.1:0"}, "-listen is read only by server mode, not by -status"},
		{[]string{"-merge", "-data", "d", "-out", "x", "shard.result"}, "-data is read only by server mode, not by -merge"},
		{[]string{"-lease-ttl", "1s", "-metrics"}, "-lease-ttl is read only by server mode, not by -metrics"},
	}
	for _, c := range named {
		var out bytes.Buffer
		err := run(c.args, &out, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): error = %v, want %q", c.args, err, c.want)
		}
	}
}
