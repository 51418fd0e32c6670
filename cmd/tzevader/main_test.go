package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runGolden runs tzevader with args and requires its stdout to equal
// testdata/<golden>.stdout.golden byte for byte.
func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", golden+".stdout.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("tzevader %s: output differs from %s:\n--- got ---\n%s--- want ---\n%s",
			strings.Join(args, " "), filepath.Base(path), got, want)
	}
}

func TestRunCalibrateSmoke(t *testing.T) {
	runGolden(t, "calibrate_kprober2", "-mode", "calibrate", "-observe", "5s", "-prober", "kprober2")
}

func TestRunUserProberKind(t *testing.T) {
	runGolden(t, "calibrate_user", "-mode", "calibrate", "-observe", "5s", "-prober", "user")
}

func TestRunDetectReportsDelay(t *testing.T) {
	runGolden(t, "detect", "-mode", "detect")
}

func TestRunKProber1ShowsTrace(t *testing.T) {
	runGolden(t, "kprober1", "-mode", "kprober1")
}

func TestRunFlood(t *testing.T) {
	runGolden(t, "flood", "-mode", "flood")
}

// TestRunFlagValidation: a bad value, an unknown flag, or a flag the mode
// does not read fails, and the error names every such flag.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-mode", "bogus"}, []string{`unknown mode "bogus"`}},
		{[]string{"-prober", "bogus"}, []string{`unknown prober "bogus"`}},
		{[]string{"-no-such-flag"}, []string{"-no-such-flag"}},
		{[]string{"-mode", "kprober1", "-observe", "5s", "-prober", "user"}, []string{"-observe, -prober", "-mode kprober1"}},
		{[]string{"-mode", "detect", "-observe", "5s"}, []string{"-observe:", "-mode detect"}},
		{[]string{"-mode", "flood", "-prober", "kprober2"}, []string{"-prober:", "-mode flood"}},
		{[]string{"-mode", "bogus", "-observe", "5s"}, []string{`unknown mode "bogus"`}},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", tc.args)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("run(%v) = %v, want it to name %q", tc.args, err, w)
			}
		}
	}
}
