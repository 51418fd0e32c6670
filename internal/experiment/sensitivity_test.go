package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// smallSensitivityConfig keeps the sweep fast enough for CI while leaving
// the timing race intact.
func smallSensitivityConfig() SensitivityConfig {
	cfg := DefaultSensitivityConfig()
	cfg.Magnitudes = []float64{0, 2, 6}
	cfg.Seeds = 4
	cfg.Detection.FullScans = 4
	return cfg
}

// TestSensitivityMonotoneDegradation is the acceptance property: detection
// probability must degrade monotonically (non-strictly) as the perturbation
// magnitude rises, and must actually fall across the charted range.
func TestSensitivityMonotoneDegradation(t *testing.T) {
	res, err := RunSensitivity(context.Background(), smallSensitivityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(res.Points))
	}
	for i, p := range res.Points {
		t.Logf("mag=%g detection mean=%.3f min=%.3f max=%.3f", p.Magnitude, p.Detection.Mean, p.Detection.Min, p.Detection.Max)
		if i > 0 && p.Detection.Mean > res.Points[i-1].Detection.Mean+1e-9 {
			t.Errorf("detection rate rose from %.3f to %.3f between mag %g and %g",
				res.Points[i-1].Detection.Mean, p.Detection.Mean, res.Points[i-1].Magnitude, p.Magnitude)
		}
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.Detection.Mean != 1 {
		t.Errorf("unperturbed detection mean = %.3f, want 1.0 (the paper's 10/10)", first.Detection.Mean)
	}
	if last.Detection.Mean >= first.Detection.Mean {
		t.Errorf("detection never degraded: mag %g mean %.3f vs mag %g mean %.3f",
			first.Magnitude, first.Detection.Mean, last.Magnitude, last.Detection.Mean)
	}
	if first.Evasion.Mean != 0 {
		t.Errorf("unperturbed evasion mean = %.3f, want 0", first.Evasion.Mean)
	}
}

// TestSensitivityRender checks the chart includes every magnitude row.
func TestSensitivityRender(t *testing.T) {
	res, err := RunSensitivity(context.Background(), smallSensitivityConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, col := range []string{"Magnitude", "Detection mean", "p25..p75", "Evasion mean"} {
		if !strings.Contains(out, col) {
			t.Errorf("render lacks column %q:\n%s", col, out)
		}
	}
	if fb := res.FirstBreak(); fb != 2 {
		t.Errorf("FirstBreak() = %g, want 2 (the first degraded magnitude in this range)", fb)
	}
}

// TestSensitivityValidation rejects empty sweeps.
func TestSensitivityValidation(t *testing.T) {
	if _, err := RunSensitivity(context.Background(), SensitivityConfig{Seeds: 1}); err == nil {
		t.Error("no magnitudes accepted")
	}
	cfg := DefaultSensitivityConfig()
	cfg.Seeds = 0
	if _, err := RunSensitivity(context.Background(), cfg); err == nil {
		t.Error("zero seeds accepted")
	}
	// A failing cell fails the chart, named by the first failure in
	// (magnitude, seed) order.
	cfg = smallSensitivityConfig()
	cfg.Detection.FullScans = 0
	_, err := RunSensitivity(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "mag=0: seed 1 failed") {
		t.Errorf("FullScans=0: err = %v, want the mag=0 seed 1 failure", err)
	}
}

// TestDeterminismSensitivityAcrossWorkers: the chart's points and rendering
// must not depend on how many workers ran the grid.
func TestDeterminismSensitivityAcrossWorkers(t *testing.T) {
	run := func(workers int) SensitivityResult {
		cfg := smallSensitivityConfig()
		cfg.Workers = workers
		res, err := RunSensitivity(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	one, many := run(1), run(8)
	if a, b := one.Render(), many.Render(); a != b {
		t.Fatalf("render differs:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", a, b)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("points differ:\nworkers=1 %+v\nworkers=8 %+v", one.Points, many.Points)
	}
}
