// Package runner fans independent simulation trials out across a bounded
// worker pool and merges their results deterministically.
//
// Per DESIGN.md §4.5 every simulation in this repository is single-threaded
// internally — one discrete-event engine, one goroutine — so a multi-seed
// sweep (seed × experiment × config variant) is embarrassingly parallel.
// The runner exploits that: Run executes N trials on up to GOMAXPROCS
// goroutines, captures per-trial panics as failed trials rather than
// crashed sweeps, honors context cancellation, and always returns results
// in trial order, so aggregated output is byte-identical regardless of the
// worker count.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Result is the outcome of one trial. Exactly one of Value and Err is
// meaningful: Err is non-nil if the trial returned an error, panicked
// (a *PanicError), or was cancelled before it started (the context error).
type Result[T any] struct {
	// Index is the trial's index in 0..N-1; results are always ordered by it.
	Index int
	Value T
	Err   error
}

// PanicError wraps a panic recovered from a trial, preserving the panic
// value and the goroutine stack at the point of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is available on the field.
func (e *PanicError) Error() string { return fmt.Sprintf("trial panicked: %v", e.Value) }

// Workers clamps an untrusted worker-count flag: values < 1 select
// GOMAXPROCS, and the count never exceeds the number of trials.
func Workers(workers, trials int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes trials 0..n-1 across at most `workers` goroutines (< 1 means
// GOMAXPROCS) and returns one Result per trial, ordered by index. A trial
// that panics reports a *PanicError in its Result; the sweep continues.
// When ctx is cancelled, running trials finish, unstarted trials report
// ctx's error, and Run returns ctx's error alongside the partial results.
func Run[T any](ctx context.Context, n, workers int, trial func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative trial count %d", n)
	}
	if trial == nil {
		return nil, fmt.Errorf("runner: nil trial function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result[T], n)
	for i := range results {
		results[i].Index = i
	}
	if n == 0 {
		return results, ctx.Err()
	}
	workers = Workers(workers, n)

	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i].Value, results[i].Err = runTrial(ctx, i, trial)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			for ; i < n; i++ {
				results[i].Err = ctx.Err()
			}
			break feed
		}
	}
	close(indices)
	wg.Wait()
	return results, ctx.Err()
}

// runTrial runs one trial with panic capture.
func runTrial[T any](ctx context.Context, i int, trial func(ctx context.Context, i int) (T, error)) (value T, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			var zero T
			value, err = zero, &PanicError{Value: r, Stack: buf}
		}
	}()
	return trial(ctx, i)
}
