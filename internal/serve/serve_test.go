package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"satin/internal/campaign"
	"satin/internal/runner"
	"satin/internal/serve"
	"satin/internal/spec"
	"satin/internal/trace"
)

// gridCampaign: 2 fault plans × 3 seeds = 6 cells, SATIN vs fast evader.
const gridCampaign = `{
  "version": 1,
  "name": "serve-grid",
  "scenario": {
    "version": 1,
    "seed": 1,
    "defense": {"kind": "satin", "satin": {"tgoal": "4s", "max_rounds": 4}},
    "evader": {"kind": "fast"},
    "run": {"to_completion": true}
  },
  "faults": ["", "scale:2"],
  "seeds": {"base": 1, "count": 3}
}`

func readFileBytes(path string) ([]byte, error) { return os.ReadFile(path) }

// fakeTrial is a deterministic, instant stand-in for the simulation trial.
func fakeTrial(s spec.Spec) (runner.Metrics, error) {
	m := runner.Metrics{}.Add("seed", float64(s.Seed))
	if s.Faults != "" {
		m = m.Add("faulted", 1)
	}
	return m, nil
}

// seedKey groups the campaign's cells by seed, as CheckpointGroupKey would.
func seedKey(s spec.Spec) (string, bool) {
	return string(rune('a' + int(s.Seed))), true
}

// fakeGroupTrial satisfies the group contract by running the spec trial per
// member — metrics-equivalent to forking, which is all the tests need.
func fakeGroupTrial(_ context.Context, members []spec.Spec) []campaign.GroupResult {
	out := make([]campaign.GroupResult, len(members))
	for i, m := range members {
		metrics, err := fakeTrial(m)
		out[i] = campaign.GroupResult{Metrics: metrics, Err: err}
	}
	return out
}

// singleProcessBytes runs the campaign start-to-finish in-process and
// returns the finalized file bytes — the invariance reference.
func singleProcessBytes(t *testing.T) []byte {
	t.Helper()
	c, err := campaign.Parse([]byte(gridCampaign))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	path := filepath.Join(t.TempDir(), "single.result")
	res, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{SpecTrial: fakeTrial})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Finalized {
		t.Fatal("single-process run did not finalize")
	}
	data, err := readFileBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fakeClock is an injectable Options.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newServer(t *testing.T, opt serve.Options) *serve.Server {
	t.Helper()
	if opt.DataDir == "" {
		opt.DataDir = t.TempDir()
	}
	s, err := serve.New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestShardedRunMatchesSingleProcess is the end-to-end tentpole check:
// submit over HTTP, drain with two concurrent workers, and require the
// merged result to be byte-identical to one uninterrupted in-process run.
func TestShardedRunMatchesSingleProcess(t *testing.T) {
	want := singleProcessBytes(t)
	s := newServer(t, serve.Options{GroupKey: seedKey})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()

	st, err := client.Submit(ctx, []byte(gridCampaign), 3)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Cells != 6 || len(st.Shards) != 3 {
		t.Fatalf("status = %+v, want 6 cells over 3 shards", st)
	}

	scratch := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = serve.RunWorker(ctx, client, serve.WorkerOptions{
				Name:       string(rune('A' + i)),
				Dir:        filepath.Join(scratch, string(rune('A'+i))),
				Trial:      fakeTrial,
				GroupKey:   seedKey,
				GroupTrial: fakeGroupTrial,
				Poll:       5 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	got, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged sharded result differs from single-process bytes")
	}

	final, err := client.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if !final.Finalized || final.Done != 6 {
		t.Fatalf("final status = %+v, want finalized with 6 done", final)
	}
	for _, sh := range final.Shards {
		if sh.State != serve.StateDone {
			t.Fatalf("shard %d state %q, want done", sh.Shard, sh.State)
		}
	}
}

// TestProgressStreamDeliversEveryCell: the JSONL event stream carries one
// trace.KindCell event per completed cell and terminates when the job does.
func TestProgressStreamDeliversEveryCell(t *testing.T) {
	s := newServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()

	st, err := client.Submit(ctx, []byte(gridCampaign), 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	var streamed []trace.Event
	done := make(chan error, 1)
	go func() {
		done <- client.StreamEvents(ctx, st.ID, 0, func(e trace.Event) error {
			streamed = append(streamed, e)
			return nil
		})
	}()

	if err := serve.RunWorker(ctx, client, serve.WorkerOptions{
		Name: "w", Dir: t.TempDir(), Trial: fakeTrial, Poll: 5 * time.Millisecond,
	}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("StreamEvents: %v", err)
	}
	if len(streamed) != 6 {
		t.Fatalf("streamed %d events, want 6", len(streamed))
	}
	seen := map[int]bool{}
	for _, e := range streamed {
		if e.Kind != trace.KindCell || e.Core != -1 || e.At != 0 {
			t.Fatalf("event %+v is not a campaign cell event", e)
		}
		seen[e.Area] = true
	}
	if len(seen) != 6 {
		t.Fatalf("stream covered %d distinct cells, want 6", len(seen))
	}
}

// TestLeaseExpiryReassignsShard: a shard whose worker went quiet past the
// TTL is handed to the next worker; the dead worker's token is refused.
func TestLeaseExpiryReassignsShard(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newServer(t, serve.Options{LeaseTTL: time.Minute, Now: clock.Now})
	if _, err := s.Submit([]byte(gridCampaign), 1); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	leaseA, open, err := s.Lease("A")
	if err != nil || !open || leaseA == nil {
		t.Fatalf("Lease A = %v, %v, %v", leaseA, open, err)
	}
	// While the lease is live the shard is not handed out again.
	if l, open, _ := s.Lease("B"); l != nil || !open {
		t.Fatalf("live lease re-issued: %v (open %v)", l, open)
	}
	// Progress renews: advance close to expiry, report, advance again —
	// still held.
	clock.Advance(50 * time.Second)
	if err := s.Progress(leaseA.Job, leaseA.Shard, serve.ProgressReport{Token: leaseA.Token, Index: leaseA.Cells[0], Detail: "ok"}); err != nil {
		t.Fatalf("Progress: %v", err)
	}
	clock.Advance(50 * time.Second)
	if l, _, _ := s.Lease("B"); l != nil {
		t.Fatal("renewed lease was re-issued")
	}
	// Past expiry the shard is reassigned and the old token dies.
	clock.Advance(time.Minute)
	leaseB, open, err := s.Lease("B")
	if err != nil || !open || leaseB == nil {
		t.Fatalf("Lease B after expiry = %v, %v, %v", leaseB, open, err)
	}
	if leaseB.Shard != leaseA.Shard || leaseB.Token == leaseA.Token {
		t.Fatalf("reassignment gave shard %d token %q (was shard %d token %q)",
			leaseB.Shard, leaseB.Token, leaseA.Shard, leaseA.Token)
	}
	if err := s.Progress(leaseA.Job, leaseA.Shard, serve.ProgressReport{Token: leaseA.Token, Detail: "late"}); err == nil {
		t.Fatal("stale token accepted for progress")
	}
	if err := s.Upload(leaseA.Job, leaseA.Shard, leaseA.Token, nil); err == nil {
		t.Fatal("stale token accepted for upload")
	}
}

// TestStaleUploadOverHTTP: the HTTP layer maps a dead lease onto
// ErrLeaseLost so the worker loop can drop the shard and move on.
func TestStaleUploadOverHTTP(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newServer(t, serve.Options{LeaseTTL: time.Minute, Now: clock.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := client.Submit(ctx, []byte(gridCampaign), 1); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	lease, _, err := client.Lease(ctx, "A")
	if err != nil || lease == nil {
		t.Fatalf("Lease: %v, %v", lease, err)
	}
	clock.Advance(2 * time.Minute)
	if _, _, err := client.Lease(ctx, "B"); err != nil {
		t.Fatalf("re-lease: %v", err)
	}
	err = client.Progress(ctx, lease.Job, lease.Shard, serve.ProgressReport{Token: lease.Token, Detail: "late"})
	if !errors.Is(err, serve.ErrLeaseLost) {
		t.Fatalf("stale progress error = %v, want ErrLeaseLost", err)
	}
	err = client.Upload(ctx, lease.Job, lease.Shard, lease.Token, []byte("junk"))
	if !errors.Is(err, serve.ErrLeaseLost) {
		t.Fatalf("stale upload error = %v, want ErrLeaseLost", err)
	}
}

// TestKilledWorkerShardIsRecomputed: worker A runs part of its shard and
// dies silently; after expiry worker B re-leases the shard, recomputes it
// from scratch, and the merged job still matches single-process bytes.
func TestKilledWorkerShardIsRecomputed(t *testing.T) {
	want := singleProcessBytes(t)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	s := newServer(t, serve.Options{LeaseTTL: time.Minute, Now: clock.Now})
	st, err := s.Submit([]byte(gridCampaign), 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	c, err := campaign.Parse([]byte(gridCampaign))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	dir := t.TempDir()
	runShard := func(name string, lease *serve.Lease, maxCells int) {
		t.Helper()
		path := filepath.Join(dir, name+".result")
		_, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{
			SpecTrial: fakeTrial,
			Only:      lease.Cells,
			MaxCells:  maxCells,
		})
		if err != nil {
			t.Fatalf("shard run %s: %v", name, err)
		}
		if maxCells > 0 {
			return // simulated kill: no upload, no progress
		}
		data, err := readFileBytes(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Upload(lease.Job, lease.Shard, lease.Token, data); err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
	}

	// A leases shard 0, completes one cell, dies without reporting.
	leaseA, _, err := s.Lease("A")
	if err != nil || leaseA == nil {
		t.Fatalf("lease A: %v, %v", leaseA, err)
	}
	runShard("a-partial", leaseA, 1)

	// C drains the other shard meanwhile.
	leaseC, _, err := s.Lease("C")
	if err != nil || leaseC == nil {
		t.Fatalf("lease C: %v, %v", leaseC, err)
	}
	runShard("c", leaseC, 0)

	// Past expiry, B inherits A's shard and computes it fully.
	clock.Advance(2 * time.Minute)
	leaseB, _, err := s.Lease("B")
	if err != nil || leaseB == nil {
		t.Fatalf("lease B: %v, %v", leaseB, err)
	}
	if leaseB.Shard != leaseA.Shard {
		t.Fatalf("B got shard %d, want A's shard %d", leaseB.Shard, leaseA.Shard)
	}
	runShard("b", leaseB, 0)

	got, err := s.Result(st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged result after dead-worker reassignment differs from single-process bytes")
	}
}

// TestSubmitIdempotent: re-submitting the same campaign with the same shard
// count returns the existing unfinished job.
func TestSubmitIdempotent(t *testing.T) {
	s := newServer(t, serve.Options{})
	a, err := s.Submit([]byte(gridCampaign), 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b, err := s.Submit([]byte(gridCampaign), 2)
	if err != nil {
		t.Fatalf("re-Submit: %v", err)
	}
	if a.ID != b.ID {
		t.Fatalf("resubmit forked job %s from %s", b.ID, a.ID)
	}
	c, err := s.Submit([]byte(gridCampaign), 3)
	if err != nil {
		t.Fatalf("Submit with different shards: %v", err)
	}
	if c.ID == a.ID {
		t.Fatal("different shard count reused the job")
	}
}

// TestResultNotReady: fetching an unfinished job's result is ErrNotReady
// over the wire, and unknown jobs are not-found.
func TestResultNotReady(t *testing.T) {
	s := newServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	ctx := context.Background()

	st, err := client.Submit(ctx, []byte(gridCampaign), 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := client.Result(ctx, st.ID); !errors.Is(err, serve.ErrNotReady) {
		t.Fatalf("Result on running job = %v, want ErrNotReady", err)
	}
	if _, err := client.Status(ctx, "nope"); err == nil {
		t.Fatal("Status on unknown job succeeded")
	}
}

// TestWorkerExitsWithoutWork: a worker pointed at an idle server returns
// immediately instead of polling forever.
func TestWorkerExitsWithoutWork(t *testing.T) {
	s := newServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &serve.Client{BaseURL: ts.URL}
	if err := serve.RunWorker(context.Background(), client, serve.WorkerOptions{
		Name: "idle", Dir: t.TempDir(), Trial: fakeTrial,
	}); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
}

// TestSubmitRejectsMoreShardsThanCells: the shard count sizes the plan and
// the coordinator's per-shard state, so it may not exceed the campaign's
// cells; over HTTP the refusal is a 400.
func TestSubmitRejectsMoreShardsThanCells(t *testing.T) {
	s := newServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const cells = 6 // gridCampaign
	body, err := json.Marshal(serve.SubmitRequest{Campaign: json.RawMessage(gridCampaign), Shards: cells + 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("submit with %d shards for %d cells: status %d, want 400", cells+1, cells, resp.StatusCode)
	}
	if st, err := s.Submit([]byte(gridCampaign), cells); err != nil || len(st.Shards) != cells {
		t.Errorf("submit with one shard per cell: %+v, %v", st, err)
	}
}

// TestSubmitRejectsBadCampaign: malformed campaigns fail submission.
func TestSubmitRejectsBadCampaign(t *testing.T) {
	s := newServer(t, serve.Options{})
	if _, err := s.Submit([]byte(`{"version": 1}`), 1); err == nil {
		t.Fatal("Submit accepted a campaign with no cells source")
	}
	if _, err := s.Submit([]byte(gridCampaign), 0); err == nil {
		t.Fatal("Submit accepted 0 shards")
	}
}
