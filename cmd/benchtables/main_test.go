package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunSingleExperimentSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "table1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Table I") {
		t.Errorf("output missing Table I header:\n%s", got)
	}
	if !strings.Contains(got, "A53") {
		t.Errorf("output missing A53 row:\n%s", got)
	}
}

func TestRunShorthandFlagSelectsExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-switch"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Ts_switch") {
		t.Errorf("-switch did not run the switch experiment:\n%s", got)
	}
	if strings.Contains(got, "Table I") {
		t.Errorf("-switch also ran other experiments:\n%s", got)
	}
}

func TestRunOnlyListSelection(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-only", "switch, recover"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Ts_switch", "Tns_recover"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunUnknownExperimentErrors(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-only", "switch,bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "bogus"`) {
		t.Errorf("err = %v, want unknown-experiment error naming bogus", err)
	}
}

func TestRunBadFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nonsense-flag"}, &out); err == nil {
		t.Error("undefined flag did not error")
	}
	if err := run([]string{"-seeds", "0"}, &out); err == nil || !strings.Contains(err.Error(), "-seeds") {
		t.Errorf("-seeds 0 error = %v", err)
	}
}

func TestDeterminismSweepCLIWorkerInvariant(t *testing.T) {
	var one, eight strings.Builder
	if err := run([]string{"-evasion", "-seeds", "3", "-workers", "1"}, &one); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-evasion", "-seeds", "3", "-workers", "8"}, &eight); err != nil {
		t.Fatal(err)
	}
	if one.String() != eight.String() {
		t.Errorf("-workers 1 and -workers 8 outputs differ:\n%s\nvs\n%s", one.String(), eight.String())
	}
	got := one.String()
	if !strings.Contains(got, "multi-seed") || !strings.Contains(got, "3 seeds (1..3)") {
		t.Errorf("sweep output missing aggregate header:\n%s", got)
	}
	if !strings.Contains(got, "evasion rate") || !strings.Contains(got, "P90") {
		t.Errorf("sweep output missing distribution columns:\n%s", got)
	}
}

func TestRunSweepFlagLeavesSingleSeedExperimentsAlone(t *testing.T) {
	// -seeds only switches the sweep-capable experiments; table1 keeps its
	// single-seed rendering.
	var out strings.Builder
	if err := run([]string{"-table1", "-seeds", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "Table I") || strings.Contains(got, "multi-seed") {
		t.Errorf("-table1 -seeds 4 output unexpected:\n%s", got)
	}
}

func TestRunMetricsOutExportsSweepCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.csv")
	var out strings.Builder
	if err := run([]string{"-evasion", "-seeds", "3", "-metrics-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.HasPrefix(got, "experiment,metric,seed,value\n") {
		t.Errorf("metrics CSV missing header:\n%.120s", got)
	}
	if !strings.Contains(got, "TZ-Evader vs baseline (§IV),evasion rate,1,1\n") {
		t.Errorf("metrics CSV missing evasion-rate sample:\n%s", got)
	}
	if !strings.Contains(out.String(), "1 sweeps exported to") {
		t.Errorf("missing export confirmation:\n%s", out.String())
	}
}

func TestRunMetricsOutDeterministicAcrossWorkers(t *testing.T) {
	export := func(workers string) string {
		path := filepath.Join(t.TempDir(), "m.csv")
		var out strings.Builder
		if err := run([]string{"-evasion", "-seeds", "3", "-workers", workers, "-metrics-out", path}, &out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if export("1") != export("8") {
		t.Error("-metrics-out CSV differs between -workers 1 and -workers 8")
	}
}

func TestRunMetricsOutNeedsSweeps(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-evasion", "-metrics-out", "x.csv"}, &out); err == nil {
		t.Error("-metrics-out with -seeds 1 did not error")
	}
	if err := run([]string{"-switch", "-seeds", "3", "-metrics-out", "x.csv"}, &out); err == nil {
		t.Error("-metrics-out without a sweep-capable experiment did not error")
	}
}

func TestRunProgressStreamsToErrOut(t *testing.T) {
	var out, errOut strings.Builder
	if err := runWith([]string{"-evasion", "-seeds", "3", "-progress"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := errOut.String()
	if !strings.Contains(got, "evasion: 3/3") {
		t.Errorf("progress stream missing final notice:\n%s", got)
	}
	for _, seed := range []string{"1", "2", "3"} {
		if !regexp.MustCompile(`(?m)^evasion: [1-3]/3 seed ` + seed + ` in \S+ ok$`).MatchString(got) {
			t.Errorf("progress stream missing an ok notice for seed %s:\n%s", seed, got)
		}
	}
	if strings.Contains(out.String(), "evasion: 3/3") {
		t.Error("progress leaked into deterministic stdout")
	}
}
