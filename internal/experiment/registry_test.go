package experiment_test

import (
	"bytes"
	"strings"
	"testing"

	"satin/internal/experiment"
)

// TestRegistryNames: names are unique, non-empty, and Lookup agrees with
// the presentation order Registry returns.
func TestRegistryNames(t *testing.T) {
	defs := experiment.Registry()
	if len(defs) == 0 {
		t.Fatal("empty registry")
	}
	names := experiment.Names()
	if len(names) != len(defs) {
		t.Fatalf("Names() has %d entries, Registry() %d", len(names), len(defs))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		if d.Name == "" {
			t.Fatalf("registry entry %d has no name", i)
		}
		if seen[d.Name] {
			t.Fatalf("registry repeats %q", d.Name)
		}
		seen[d.Name] = true
		if names[i] != d.Name {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], d.Name)
		}
		if d.Run == nil {
			t.Fatalf("experiment %q has no single-seed form", d.Name)
		}
		got, ok := experiment.Lookup(d.Name)
		if !ok || got.Name != d.Name {
			t.Fatalf("Lookup(%q) = %v, %v", d.Name, got.Name, ok)
		}
	}
	if _, ok := experiment.Lookup("not-an-experiment"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

// TestRegistrySweepablesHaveTrials: the multi-seed form is the per-seed
// trial, and exactly the experiments that have one name the sweep and the
// section title their -seeds table renders under.
func TestRegistrySweepablesHaveTrials(t *testing.T) {
	sweepable := 0
	for _, d := range experiment.Registry() {
		if named := d.SweepName != "" && d.SweepTitle != ""; named != d.Sweepable() {
			t.Errorf("experiment %q: sweepable %v but sweep name %q, title %q", d.Name, d.Sweepable(), d.SweepName, d.SweepTitle)
		}
		if d.Sweepable() {
			sweepable++
		}
	}
	if sweepable == 0 {
		t.Fatal("no experiment has a multi-seed form")
	}
}

// TestRegistryRunRendersSection: registry dispatch prints the experiment's
// section header — the layout benchtables' full-suite output is made of.
func TestRegistryRunRendersSection(t *testing.T) {
	def, ok := experiment.Lookup("recover")
	if !ok {
		t.Fatal("recover not registered")
	}
	var buf bytes.Buffer
	if err := def.Run(&buf, experiment.RunConfig{Seed: 1}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== Tns_recover") {
		t.Fatalf("output missing section header:\n%s", out)
	}
	if !strings.Contains(out, "A53") {
		t.Fatalf("output missing the rendered table:\n%s", out)
	}
}
