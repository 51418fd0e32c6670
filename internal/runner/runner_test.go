package runner

import (
	"context"
	"errors"
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
