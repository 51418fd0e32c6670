package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunChromeTraceAndProfileOut: the profiling flags attach the profiler,
// write both artifacts, and the chrome trace passes the CLI's own linter.
func TestRunChromeTraceAndProfileOut(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "spans.json")
	profile := filepath.Join(dir, "profile.txt")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-chrome-trace", chrome, "-profile-out", profile}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "chrome trace:") || !strings.Contains(got, "spans written to") {
		t.Errorf("missing chrome trace confirmation:\n%s", got)
	}
	data, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Per-core virtual-time attribution") {
		t.Errorf("profile file lacks attribution table:\n%s", data)
	}
	var lintOut strings.Builder
	if err := run([]string{"-lint-chrome", chrome}, &lintOut); err != nil {
		t.Fatalf("-lint-chrome rejected our own export: %v", err)
	}
	if !strings.Contains(lintOut.String(), "chrome trace ok:") {
		t.Errorf("missing lint confirmation:\n%s", lintOut.String())
	}
}

// TestRunLintChromeRejectsGarbage: malformed JSON fails with a non-nil
// error (non-zero exit in main).
func TestRunLintChromeRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"name":"x","ph":"Q"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-lint-chrome", path}, &out); err == nil {
		t.Fatal("-lint-chrome accepted a malformed trace")
	}
}

// TestRunDiffSelfIsIdentical: a trace diffed against itself passes with a
// zero budget; against a different seed's trace it fails.
func TestRunDiffSelfIsIdentical(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	var out strings.Builder
	if err := run([]string{"-scans", "1", "-tp", "1s", "-trace-out", a}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "2", "-scans", "1", "-tp", "1s", "-trace-out", b}, &out); err != nil {
		t.Fatal(err)
	}

	var diffOut strings.Builder
	if err := run([]string{"-diff", a, a}, &diffOut); err != nil {
		t.Fatalf("self-diff failed: %v\n%s", err, diffOut.String())
	}
	if !strings.Contains(diffOut.String(), "zero divergence") {
		t.Errorf("self-diff not reported identical:\n%s", diffOut.String())
	}

	diffOut.Reset()
	if err := run([]string{"-diff", a, b}, &diffOut); err == nil {
		t.Fatal("cross-seed diff passed a zero budget")
	}
	if !strings.Contains(diffOut.String(), "FAIL") {
		t.Errorf("cross-seed diff missing FAIL verdict:\n%s", diffOut.String())
	}
}

// TestRunDiffNeedsTwoFiles: -diff without the positional second trace, or
// with a file that does not exist, is an error.
func TestRunDiffNeedsTwoFiles(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-diff", "a.jsonl"}, &out); err == nil {
		t.Fatal("-diff with one file accepted")
	}
	dir := t.TempDir()
	a := writeFile(t, dir, "a.jsonl", traceA)
	if err := run([]string{"-diff", a, filepath.Join(dir, "missing.jsonl")}, &out); err == nil {
		t.Fatal("-diff against a missing file accepted")
	}
}

const traceA = `{"at_ns":1000,"kind":"round","core":0,"area":1}
{"at_ns":2000,"kind":"round","core":0,"area":2}
`

// traceShifted is traceA with the second event 500ns late.
const traceShifted = `{"at_ns":1000,"kind":"round","core":0,"area":1}
{"at_ns":2500,"kind":"round","core":0,"area":2}
`

func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDiffBudget: a 500ns shift fails -diff at the default zero budget
// and passes with a PASS verdict at -diff-budget 1us.
func TestRunDiffBudget(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.jsonl", traceA)
	b := writeFile(t, dir, "b.jsonl", traceShifted)
	var out strings.Builder
	if err := run([]string{"-diff", a, b}, &out); err == nil {
		t.Fatalf("500ns shift passed a zero budget:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-diff", a, "-diff-budget", "1us", b}, &out); err != nil {
		t.Fatalf("500ns shift failed a 1us budget: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("missing PASS verdict:\n%s", out.String())
	}
}

// TestToolModesRejectOtherFlags: -diff, -lint-trace and -lint-chrome read
// only their files (and -diff its -diff-budget), so any other flag beside
// one of them, a second tool mode, or -diff-budget without -diff is an
// error naming the flags, and nothing runs.
func TestToolModesRejectOtherFlags(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.jsonl", traceA)
	written := filepath.Join(dir, "b.jsonl")
	chrome := writeFile(t, dir, "c.json", `{"traceEvents":[]}`)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-lint-trace", a, "-trace-out", written, "-scans", "3"},
			"-scans, -trace-out: flags that -lint-trace does not read"},
		{[]string{"-lint-chrome", chrome, "-v"}, "-v: flags that -lint-chrome does not read"},
		{[]string{"-diff", a, "-seed", "2", a}, "-seed: flags that -diff does not read"},
		{[]string{"-lint-trace", a, "-diff", a, a}, "-diff and -lint-trace are separate tool modes; use one"},
		{[]string{"-lint-chrome", chrome, "-lint-trace", a}, "-lint-chrome and -lint-trace are separate tool modes; use one"},
		{[]string{"-lint-trace", a, "-diff-budget", "1us"}, "-diff-budget sets the budget of -diff; it needs -diff"},
		{[]string{"-diff-budget", "1ms", "-scans", "1", "-tp", "1s", "-trace-out", written},
			"-diff-budget sets the budget of -diff; it needs -diff"},
	} {
		var out strings.Builder
		err := run(c.args, &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("run(%v): error = %v, want %q", c.args, err, c.want)
		}
		if _, err := os.Stat(written); !os.IsNotExist(err) {
			t.Fatalf("run(%v) wrote %s (stat: %v)", c.args, written, err)
		}
	}
}

// TestRunLintTraceChecksOrder: -lint-trace must reject a stream whose
// timestamps regress.
func TestRunLintTraceChecksOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unordered.jsonl")
	lines := `{"at_ns":2000,"kind":"round","core":0,"area":1}
{"at_ns":1000,"kind":"round","core":0,"area":2}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-lint-trace", path}, &out)
	if err == nil {
		t.Fatal("-lint-trace accepted out-of-order timestamps")
	}
	if !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error does not mention ordering: %v", err)
	}
}
