package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmokeSATINvsFastEvader(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "SATIN: 19 rounds, 1 full scans, 1 alarms") {
		t.Errorf("unexpected SATIN summary:\n%s", got)
	}
	if !strings.Contains(got, "rootkit: state") || !strings.Contains(got, "evader:") {
		t.Errorf("missing attack-side summary:\n%s", got)
	}
}

func TestRunBaselineDefense(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-defense", "baseline", "-rounds", "3", "-tp", "1s"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "baseline: 3 rounds, 3 reported clean") {
		t.Errorf("baseline should be fully evaded:\n%s", got)
	}
}

func TestRunVerbosePrintsRounds(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "round   1:") {
		t.Errorf("-v did not print per-round lines:\n%s", got)
	}
}

func TestRunTimelineFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.txt")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-timeline", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("timeline file is empty")
	}
	if !strings.Contains(out.String(), "events written to") {
		t.Errorf("missing timeline confirmation:\n%s", out.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // a substring of the error; "" accepts any
	}{
		{[]string{"-defense", "bogus"}, ""},
		{[]string{"-evader", "bogus"}, ""},
		{[]string{"-routing", "bogus"}, ""},
		{[]string{"-guard", "bogus"}, ""},
		{[]string{"-defense", "none", "-evader", "none"}, ""},
		{[]string{"-no-such-flag"}, ""},
		// A flag the chosen defense or evader does not read is named, not
		// dropped.
		{[]string{"-rounds", "5"}, "-rounds: flags that -defense satin does not read"},
		{[]string{"-defense", "baseline", "-scans", "7"}, "-scans: flags that -defense baseline does not read"},
		{[]string{"-evader", "none", "-threshold", "5ms"}, "-threshold: flags that -evader none does not read"},
		{[]string{"-defense", "none", "-tp", "3s", "-scans", "4"}, "-scans, -tp: flags that -defense none does not read"},
		{[]string{"-defense", "baseline", "-evader", "none", "-scans", "2", "-threshold", "1ms"},
			"-scans: flags that -defense baseline does not read; -threshold: flags that -evader none does not read"},
		// A zero or negative period or threshold is refused by name rather
		// than replaced with the paper's default.
		{[]string{"-tp", "0"}, "-tp 0s"},
		{[]string{"-threshold", "0"}, "-threshold 0s"},
		{[]string{"-evader", "thread", "-tp", "0"}, "-tp 0s"},
		{[]string{"-defense", "baseline", "-tp", "-1s"}, "-tp -1s"},
		{[]string{"-threshold", "-1ms", "-dump-spec"}, "-threshold -1ms"},
	}
	for _, c := range cases {
		var out strings.Builder
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): error %q, want it to contain %q", c.args, err, c.want)
		}
	}
}

func TestRunTraceOutJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-trace-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "events streamed to") {
		t.Errorf("missing stream confirmation:\n%s", out.String())
	}
	// The streamed file must parse back via the lint path.
	var lint strings.Builder
	if err := run([]string{"-lint-trace", path}, &lint); err != nil {
		t.Fatalf("lint of streamed trace failed: %v", err)
	}
	if !strings.Contains(lint.String(), "trace ok:") {
		t.Errorf("missing lint confirmation:\n%s", lint.String())
	}
}

func TestRunTraceOutCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-trace-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "at_ns,kind,core,area,detail\n") {
		t.Errorf("CSV trace missing header:\n%.80s", data)
	}
}

func TestRunMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.csv")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-metrics-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"name,type,field,value\n", "satin.rounds,counter,value,19\n", "monitor.switch_enter_ns,histogram,count,"} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics CSV missing %q:\n%.400s", want, got)
		}
	}
}

func TestRunLintTraceRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-lint-trace", path}, &out); err == nil {
		t.Error("lint accepted a malformed trace")
	}
}
