package runner

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

func TestSweepWriteCSV(t *testing.T) {
	sw, err := RunSweep(context.Background(), "exp", 7, 3, 1,
		func(_ context.Context, seed uint64) (Metrics, error) {
			if seed == 8 {
				return nil, fmt.Errorf("bad seed")
			}
			return Metrics{}.Add("alarms", float64(seed)).Add("rounds", 19), nil
		})
	if err != nil {
		t.Fatal(err)
	}
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
		sw, err := RunSweep(context.Background(), "d", 1, 16, workers,
			func(_ context.Context, seed uint64) (Metrics, error) {
				return Metrics{}.Add("m", float64(seed*seed)), nil
			})
		if err != nil {
			t.Fatal(err)
		}
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
