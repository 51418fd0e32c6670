package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// runSweep runs trial for seeds base..base+n-1 on Run and adds each result
// to a sweep in seed order, the way closure sweeps build their aggregate.
func runSweep(t *testing.T, name string, base uint64, n, workers int, trial func(seed uint64) (Metrics, error)) *Sweep {
	t.Helper()
	results, err := Run(context.Background(), n, workers, func(_ context.Context, i int) (Metrics, error) {
		return trial(base + uint64(i))
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sw := NewSweep(name)
	for _, r := range results {
		sw.Add(base+uint64(r.Index), r.Value, r.Err)
	}
	return sw
}

func TestRunSweepAggregates(t *testing.T) {
	sw := runSweep(t, "toy", 10, 5, 3, func(seed uint64) (Metrics, error) {
		var m Metrics
		m = m.Add("seed", float64(seed))
		m = m.Add("double", float64(2*seed))
		return m, nil
	})
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
	sw := runSweep(t, "flaky", 0, 6, 2, func(seed uint64) (Metrics, error) {
		switch seed {
		case 2:
			return nil, errors.New("bad seed")
		case 4:
			panic("boom")
		}
		return Metrics{}.Add("v", float64(seed)), nil
	})
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

// TestDeterminismAcrossWorkerCounts is the runner-level half of the
// determinism guarantee: the same trial function over the same seeds must
// render byte-identically for any worker count, even when per-trial
// durations vary wildly.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	trial := func(seed uint64) (Metrics, error) {
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
		got := runSweep(t, "det", 1, 16, workers, trial).Render()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d output differs:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", workers, want, workers, got)
		}
	}
}

func TestSweepWriteCSV(t *testing.T) {
	sw := runSweep(t, "exp", 7, 3, 1, func(seed uint64) (Metrics, error) {
		if seed == 8 {
			return nil, fmt.Errorf("bad seed")
		}
		return Metrics{}.Add("alarms", float64(seed)).Add("rounds", 19), nil
	})
	var buf bytes.Buffer
	if err := sw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "experiment,metric,seed,value\n" +
		"exp,alarms,7,7\n" +
		"exp,alarms,9,9\n" +
		"exp,rounds,7,19\n" +
		"exp,rounds,9,19\n" +
		"exp,__failed__,8,1\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestSweepCSVDeterministicAcrossWorkers: the export must not depend on
// completion order.
func TestSweepCSVDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		sw := runSweep(t, "d", 1, 16, workers, func(seed uint64) (Metrics, error) {
			return Metrics{}.Add("m", float64(seed*seed)), nil
		})
		var buf bytes.Buffer
		if err := sw.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run(1) != run(8) {
		t.Fatal("sweep CSV differs between workers=1 and workers=8")
	}
}
