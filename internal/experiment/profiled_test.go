package experiment

import (
	"context"
	"testing"
)

func quickProfileCfg(seed uint64) DetectionConfig {
	cfg := DefaultDetectionConfig()
	cfg.Seed = seed
	cfg.FullScans = 1
	return cfg
}

// TestProfileDoesNotPerturbRun: attaching the profiler to the detection rig
// must leave every headline number untouched — the profiler observes, it
// never schedules.
func TestProfileDoesNotPerturbRun(t *testing.T) {
	plain, err := RunDetection(quickProfileCfg(1))
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cfg := quickProfileCfg(1)
	cfg.Profile = true
	profiled, err := RunDetection(cfg)
	if err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	if profiled.Profile == nil {
		t.Fatal("profiled run returned no summary")
	}
	got, want := profiled, plain
	got.Profile = nil
	if got != want {
		t.Fatalf("profiler perturbed the run:\nprofiled %+v\nplain    %+v", got, want)
	}
	if err := profiled.Profile.ResidencyCheck(); err != nil {
		t.Fatal(err)
	}
	if profiled.Profile.Rounds != plain.Rounds {
		t.Fatalf("profile counted %d rounds, run had %d", profiled.Profile.Rounds, plain.Rounds)
	}
}

// TestProfileSweepWorkerInvariance: the merged attribution and the per-seed
// metric distributions must be byte-identical for 1 worker and 8.
func TestProfileSweepWorkerInvariance(t *testing.T) {
	cfg := quickProfileCfg(1)
	const seeds = 3
	sw1, m1, err := RunDetectionProfileSweep(context.Background(), cfg, seeds, 1)
	if err != nil {
		t.Fatalf("1-worker sweep: %v", err)
	}
	sw8, m8, err := RunDetectionProfileSweep(context.Background(), cfg, seeds, 8)
	if err != nil {
		t.Fatalf("8-worker sweep: %v", err)
	}
	if sw1.Render() != sw8.Render() {
		t.Fatalf("sweep render differs across worker counts:\n--- 1 worker ---\n%s--- 8 workers ---\n%s", sw1.Render(), sw8.Render())
	}
	if m1.Render() != m8.Render() {
		t.Fatalf("merged attribution differs across worker counts:\n--- 1 worker ---\n%s--- 8 workers ---\n%s", m1.Render(), m8.Render())
	}
	if m1.Seeds != seeds {
		t.Fatalf("merged %d seeds, want %d", m1.Seeds, seeds)
	}
	if err := m1.ResidencyCheck(); err != nil {
		t.Fatal(err)
	}
}
