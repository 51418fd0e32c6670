package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepGoldens pins the bytes of the -seeds sweep tables and their
// -metrics-out CSV, as printed when run from the repository root. The spec
// path in a section title is normalized to that root-relative form, and the
// CSV path in the "metrics: … exported to" line to sweep.csv.
func TestSweepGoldens(t *testing.T) {
	const rootSpec = "testdata/specs/clean.json"
	cleanSpec := filepath.Join("..", "..", rootSpec)
	// clean.json plus an export section: a sweep writes no per-run
	// artifacts, so the section changes neither the output nor the disk.
	tmp := t.TempDir()
	tracePath := filepath.Join(tmp, "trace.jsonl")
	exportSpec := filepath.Join(tmp, "clean_export.json")
	writeWithExport(t, cleanSpec, exportSpec, tracePath)

	cases := []struct {
		name, golden string
		args         []string
	}{
		{"evasion", "sweep_evasion", []string{"-evasion", "-seeds", "3"}},
		{"spec", "sweep_spec_clean", []string{"-spec", cleanSpec, "-seeds", "3"}},
		{"spec-export", "sweep_spec_clean", []string{"-spec", exportSpec, "-seeds", "3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			csvPath := filepath.Join(t.TempDir(), "sweep.csv")
			var out strings.Builder
			if err := run(append(tc.args, "-metrics-out", csvPath), &out); err != nil {
				t.Fatal(err)
			}
			got := strings.NewReplacer(csvPath, "sweep.csv", cleanSpec, rootSpec, exportSpec, rootSpec).Replace(out.String())
			compareGolden(t, filepath.Join("testdata", tc.golden+".stdout.golden"), got)
			csv, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", tc.golden+".csv.golden"), string(csv))
		})
	}
	if _, err := os.Stat(tracePath); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("sweeping a template with export.trace touched %s (stat: %v)", tracePath, err)
	}
}

// writeWithExport copies the spec at src to dst with an export.trace path
// added.
func writeWithExport(t *testing.T, src, dst, tracePath string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["export"] = map[string]any{"trace": tracePath}
	if data, err = json.MarshalIndent(doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", filepath.Base(path), got, want)
	}
}
