package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		results, err := Run(context.Background(), 50, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != 50 {
			t.Fatalf("workers=%d: %d results, want 50", workers, len(results))
		}
		for i, r := range results {
			if r.Index != i || r.Value != i*i || r.Err != nil {
				t.Fatalf("workers=%d: results[%d] = %+v", workers, i, r)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	_, err := Run(context.Background(), 64, workers, func(_ context.Context, i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent trials, cap is %d", p, workers)
	}
}

func TestRunCapturesPanicsAsFailedTrials(t *testing.T) {
	results, err := Run(context.Background(), 10, 4, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("seed exploded")
		}
		if i == 7 {
			return 0, errors.New("plain failure")
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if !errors.As(results[3].Err, &pe) {
		t.Fatalf("results[3].Err = %v, want *PanicError", results[3].Err)
	}
	if pe.Value != "seed exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {%v, %d stack bytes}", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "seed exploded") {
		t.Errorf("PanicError.Error() = %q", pe.Error())
	}
	if results[7].Err == nil || results[7].Err.Error() != "plain failure" {
		t.Errorf("results[7].Err = %v", results[7].Err)
	}
	for _, i := range []int{0, 1, 2, 4, 5, 6, 8, 9} {
		if results[i].Err != nil || results[i].Value != i {
			t.Errorf("healthy trial %d = %+v", i, results[i])
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	results, err := Run(ctx, 100, 2, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		once.Do(func() { cancel(); close(release) })
		<-release
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if len(results) != 100 {
		t.Fatalf("%d results, want 100 (partial results on cancel)", len(results))
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no trial reported the cancellation")
	}
	if int(started.Load())+cancelled < 100 {
		t.Errorf("started %d + cancelled %d < 100: trials lost", started.Load(), cancelled)
	}
}

func TestRunEdgeCases(t *testing.T) {
	if _, err := Run(context.Background(), -1, 1, func(_ context.Context, i int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n did not error")
	}
	if _, err := Run[int](context.Background(), 1, 1, nil); err == nil {
		t.Error("nil trial did not error")
	}
	results, err := Run(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(results) != 0 {
		t.Errorf("n=0: results=%v err=%v", results, err)
	}
	// A nil context is tolerated (background).
	if _, err := Run(nil, 2, 1, func(_ context.Context, i int) (int, error) { return i, nil }); err != nil { //nolint:staticcheck
		t.Errorf("nil ctx: %v", err)
	}
}

func TestWorkersClamps(t *testing.T) {
	cases := []struct{ workers, trials, wantMax int }{
		{5, 3, 3},   // never more workers than trials
		{2, 100, 2}, // explicit cap respected
		{1, 0, 1},   // at least one
	}
	for _, c := range cases {
		got := Workers(c.workers, c.trials)
		if got > c.wantMax || got < 1 {
			t.Errorf("Workers(%d, %d) = %d, want in [1, %d]", c.workers, c.trials, got, c.wantMax)
		}
	}
	if got := Workers(0, 1000); got < 1 {
		t.Errorf("Workers(0, 1000) = %d, want GOMAXPROCS-ish >= 1", got)
	}
}

func TestRunSweepAggregates(t *testing.T) {
	sw, err := RunSweep(context.Background(), "toy", 10, 5, 3, func(_ context.Context, seed uint64) (Metrics, error) {
		var m Metrics
		m = m.Add("seed", float64(seed))
		m = m.Add("double", float64(2*seed))
		return m, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.Keys(); len(got) != 2 || got[0] != "seed" || got[1] != "double" {
		t.Fatalf("Keys = %v", got)
	}
	if got := sw.Samples("seed"); fmt.Sprint(got) != "[10 11 12 13 14]" {
		t.Errorf("Samples(seed) = %v, want seed order", got)
	}
	d := sw.Dist("double")
	if d.N != 5 || d.Min != 20 || d.Max != 28 || d.Mean != 24 || d.P50 != 24 {
		t.Errorf("Dist(double) = %+v", d)
	}
	if sw.Trials() != 5 || len(sw.Failures) != 0 {
		t.Errorf("Trials/Failures = %d/%d", sw.Trials(), len(sw.Failures))
	}
	if out := sw.Render(); !strings.Contains(out, "toy: 5 seeds (10..14)") || !strings.Contains(out, "double") {
		t.Errorf("Render:\n%s", out)
	}
}

func TestRunSweepRecordsFailures(t *testing.T) {
	sw, err := RunSweep(context.Background(), "flaky", 0, 6, 2, func(_ context.Context, seed uint64) (Metrics, error) {
		switch seed {
		case 2:
			return nil, errors.New("bad seed")
		case 4:
			panic("boom")
		}
		return Metrics{}.Add("v", float64(seed)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Failures) != 2 || sw.Failures[0].Seed != 2 || sw.Failures[1].Seed != 4 {
		t.Fatalf("Failures = %+v", sw.Failures)
	}
	var pe *PanicError
	if !errors.As(sw.Failures[1].Err, &pe) {
		t.Errorf("seed 4 error = %v, want *PanicError", sw.Failures[1].Err)
	}
	if got := sw.Samples("v"); fmt.Sprint(got) != "[0 1 3 5]" {
		t.Errorf("Samples(v) = %v", got)
	}
	if out := sw.Render(); !strings.Contains(out, "2 FAILED") || !strings.Contains(out, "seed 2 FAILED: bad seed") {
		t.Errorf("Render:\n%s", out)
	}
}

func TestRunSweepRejectsEmpty(t *testing.T) {
	if _, err := RunSweep(context.Background(), "x", 0, 0, 1, func(_ context.Context, seed uint64) (Metrics, error) {
		return nil, nil
	}); err == nil {
		t.Error("0-seed sweep did not error")
	}
}

// TestDeterminismAcrossWorkerCounts is the runner-level half of the
// determinism guarantee: the same trial function over the same seeds must
// render byte-identically for any worker count, even when per-trial
// durations vary wildly.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	trial := func(_ context.Context, seed uint64) (Metrics, error) {
		// Vary completion order: later seeds finish first.
		time.Sleep(time.Duration(16-seed%16) * time.Millisecond)
		if seed%7 == 3 {
			return nil, fmt.Errorf("synthetic failure at seed %d", seed)
		}
		m := Metrics{}.Add("value", float64(seed*seed%101))
		return m.Add("parity", float64(seed%2)), nil
	}
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		sw, err := RunSweep(context.Background(), "det", 1, 16, workers, trial)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := sw.Render()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d output differs:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", workers, want, workers, got)
		}
	}
}
