package experiment

import (
	"strings"
	"testing"
	"time"

	"satin/internal/hw"
	"satin/internal/introspect"
	"satin/internal/stats"
	"satin/internal/workload"
)

func TestRigAssembly(t *testing.T) {
	rig, err := NewRig(1)
	if err != nil {
		t.Fatal(err)
	}
	areas, err := rig.JunoAreas()
	if err != nil {
		t.Fatal(err)
	}
	if len(areas) != 19 {
		t.Errorf("areas = %d, want 19", len(areas))
	}
}

// TestNewRigFromBootState: a rig built from a boot state holds the same
// kernel as one booted from the seed, and a boot state of another seed is
// refused.
func TestNewRigFromBootState(t *testing.T) {
	boot, err := bootJuno(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRigFrom(2, boot); err == nil {
		t.Fatal("NewRigFrom built a seed-2 rig from a seed-1 boot state")
	}
	shared, err := NewRigFrom(1, boot)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRig(1)
	if err != nil {
		t.Fatal(err)
	}
	l := fresh.Image.Layout()
	a := make([]byte, l.TotalSize())
	b := make([]byte, l.TotalSize())
	if err := shared.Image.Mem().Read(l.Base, a); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Image.Mem().Read(l.Base, b); err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("the kernel built from the boot state differs from the one booted from the seed")
	}
}

func TestTable1ReproducesPaper(t *testing.T) {
	res, err := RunTable1(1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table I averages (seconds per byte).
	want := []struct {
		core hw.CoreType
		tech introspect.Technique
		avg  float64
	}{
		{hw.CortexA53, introspect.DirectHash, 1.07e-8},
		{hw.CortexA53, introspect.SnapshotHash, 1.08e-8},
		{hw.CortexA57, introspect.DirectHash, 6.71e-9},
		{hw.CortexA57, introspect.SnapshotHash, 6.75e-9},
	}
	for _, w := range want {
		cell, err := res.Cell(w.core, w.tech)
		if err != nil {
			t.Fatal(err)
		}
		if cell.PerByte.N != Table1Repetitions {
			t.Errorf("%v/%v: N = %d, want 50", w.core, w.tech, cell.PerByte.N)
		}
		if e := stats.RelErr(cell.PerByte.Mean, w.avg); e > 0.10 {
			t.Errorf("%v/%v: mean %.3g, paper %.3g (rel err %.2f)", w.core, w.tech, cell.PerByte.Mean, w.avg, e)
		}
	}
	// Shape: hash <= snapshot on average; A57 faster than A53.
	a53h, _ := res.Cell(hw.CortexA53, introspect.DirectHash)
	a53s, _ := res.Cell(hw.CortexA53, introspect.SnapshotHash)
	a57h, _ := res.Cell(hw.CortexA57, introspect.DirectHash)
	if a53h.PerByte.Mean > a53s.PerByte.Mean*1.02 {
		t.Error("direct hash slower than snapshot on A53; Table I says otherwise")
	}
	if a57h.PerByte.Mean >= a53h.PerByte.Mean {
		t.Error("A57 not faster than A53")
	}
	out := res.Render()
	for _, needle := range []string{"A53-Average", "A57-Min", "Hash 1-Byte", "Snapshot 1-byte"} {
		if !strings.Contains(out, needle) {
			t.Errorf("rendered table missing %q:\n%s", needle, out)
		}
	}
}

func TestSwitchReproducesPaper(t *testing.T) {
	res, err := RunSwitch(2)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-B1: 2.38e-6 s to 3.60e-6 s, similar on both core types.
	for _, s := range []stats.Summary{res.A53, res.A57} {
		if s.N != Table1Repetitions {
			t.Errorf("N = %d, want 50", s.N)
		}
		if s.Min < 2.38e-6 || s.Max > 3.60e-6 {
			t.Errorf("Ts_switch range [%.3g, %.3g] outside paper's [2.38e-6, 3.60e-6]", s.Min, s.Max)
		}
	}
	if stats.RelErr(res.A53.Mean, res.A57.Mean) > 0.1 {
		t.Errorf("A53 (%.3g) and A57 (%.3g) switch times should be similar", res.A53.Mean, res.A57.Mean)
	}
	if !strings.Contains(res.Render(), "Ts_switch") {
		t.Error("render missing header")
	}
}

func TestRecoverReproducesPaper(t *testing.T) {
	res, err := RunRecover(3)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-B2: A53 average 5.80e-3 s, A57 average 4.96e-3 s.
	if e := stats.RelErr(res.A53.Mean, 5.80e-3); e > 0.05 {
		t.Errorf("A53 recover mean %.3g, paper 5.80e-3", res.A53.Mean)
	}
	if e := stats.RelErr(res.A57.Mean, 4.96e-3); e > 0.05 {
		t.Errorf("A57 recover mean %.3g, paper 4.96e-3", res.A57.Mean)
	}
	// Worst case ≈ 6.13e-3 s.
	if res.A53.Max > 6.2e-3 {
		t.Errorf("A53 recover max %.3g exceeds the paper's worst case", res.A53.Max)
	}
	if !strings.Contains(res.Render(), "Tns_recover") {
		t.Error("render missing header")
	}
}

func TestTable2ReproducesPaper(t *testing.T) {
	res, err := RunTable2(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// Paper Table II averages.
	paperAvg := []float64{2.61e-4, 3.54e-4, 4.21e-4, 5.26e-4, 6.61e-4}
	for i, row := range res.Rows {
		if row.Thresholds.N != Table2Rounds {
			t.Errorf("period %v: N = %d, want 50", row.Period, row.Thresholds.N)
		}
		if e := stats.RelErr(row.Thresholds.Mean, paperAvg[i]); e > 0.45 {
			t.Errorf("period %v: avg %.3g, paper %.3g (rel err %.2f)", row.Period, row.Thresholds.Mean, paperAvg[i], e)
		}
	}
	// Shape: averages strictly increase with period; extremes ≤ ~1.8e-3.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Thresholds.Mean <= res.Rows[i-1].Thresholds.Mean {
			t.Errorf("averages not increasing at row %d", i)
		}
	}
	for _, row := range res.Rows {
		if row.Thresholds.Max > 1.9e-3 {
			t.Errorf("period %v: max %.3g exceeds the paper's ≈1.8e-3 envelope", row.Period, row.Thresholds.Max)
		}
	}
	if !strings.Contains(res.Render(), "Probing Period") {
		t.Error("Table II render missing header")
	}
	fig4 := res.RenderFig4()
	if !strings.Contains(fig4, "Median") {
		t.Error("Fig 4 render missing header")
	}
}

func TestFig4BoxesOrdered(t *testing.T) {
	res, err := RunTable2(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		b := row.Box
		if !(b.LowerWhisk <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.UpperWhisk) {
			t.Errorf("period %v: box not ordered: %+v", row.Period, b)
		}
	}
}

func TestSingleCoreReproducesQuarterRatio(t *testing.T) {
	res, err := RunSingleCore(6, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-B2: single-core threshold ≈ 1/4 of all-core.
	if res.Ratio < 0.15 || res.Ratio > 0.40 {
		t.Errorf("ratio = %.2f, paper says ≈0.25", res.Ratio)
	}
	if !strings.Contains(res.Render(), "single fixed core") {
		t.Error("render missing row")
	}
}

func TestRaceReproducesPaper(t *testing.T) {
	res, err := RunRace(7)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-C: S ≈ 1,218,351 bytes; ≈90% of the 11,916,240-byte kernel
	// unprotected.
	if res.SBound < 1218000 || res.SBound > 1219000 {
		t.Errorf("S bound = %d, paper 1218351", res.SBound)
	}
	if res.KernelSize != 11916240 {
		t.Errorf("kernel = %d, paper 11916240", res.KernelSize)
	}
	if res.UnprotectedAnalytic < 0.88 || res.UnprotectedAnalytic > 0.92 {
		t.Errorf("analytic unprotected = %.3f, paper ≈0.90", res.UnprotectedAnalytic)
	}
	if res.UnprotectedEmpirical < 0.80 || res.UnprotectedEmpirical > 0.95 {
		t.Errorf("empirical unprotected = %.3f, want ≈0.90", res.UnprotectedEmpirical)
	}
	// Detected trials must be the shallow ones.
	for _, tr := range res.Sweep {
		if tr.Fraction > 0.15 && tr.Detected {
			t.Errorf("trace at %.0f%% detected; full-kernel scan should lose that race", tr.Fraction*100)
		}
		if tr.Fraction < 0.05 && !tr.Detected {
			t.Errorf("trace at %.0f%% evaded; scan reaches it before recovery", tr.Fraction*100)
		}
	}
	if !strings.Contains(res.Render(), "S bound") {
		t.Error("render missing rows")
	}
}

func TestEvasionDefeatsBaseline(t *testing.T) {
	res, err := RunEvasion(8, 6, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", res.Rounds)
	}
	if res.EvasionRate != 1.0 {
		t.Errorf("evasion rate = %.2f, want 1.0 (trace ≈81%% deep)", res.EvasionRate)
	}
	if res.SuspectEvents < res.Rounds {
		t.Errorf("prober flagged %d of %d rounds", res.SuspectEvents, res.Rounds)
	}
	// APT economics: the attack is active nearly all the time. (Each 2 s
	// baseline round hides the trace for ≈90 ms; the paper's 8 s periods
	// push this above 0.97.)
	if res.ActiveFraction < 0.90 {
		t.Errorf("active fraction = %.3f, want > 0.90", res.ActiveFraction)
	}
	if !strings.Contains(res.Render(), "evasion success rate") {
		t.Error("render missing rows")
	}
	// Validation.
	if _, err := RunEvasion(1, 0, time.Second); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestDetectionReproducesPaper(t *testing.T) {
	cfg := DefaultDetectionConfig()
	// Keep CI fast: 4 full scans at tp = 2 s; assertions scale.
	cfg.FullScans = 4
	cfg.PerRoundPeriod = 2 * time.Second
	res, err := RunDetection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := cfg.FullScans * 19
	if res.Rounds != wantRounds {
		t.Fatalf("rounds = %d, want %d", res.Rounds, wantRounds)
	}
	if res.AttackedAreaChecks != cfg.FullScans {
		t.Errorf("area-14 checks = %d, want %d", res.AttackedAreaChecks, cfg.FullScans)
	}
	if res.Detections != cfg.FullScans {
		t.Errorf("detections = %d, want %d (all recovery efforts fail)", res.Detections, cfg.FullScans)
	}
	if res.FalseNegatives != 0 || res.FalsePositives != 0 {
		t.Errorf("prober FN=%d FP=%d, want 0/0", res.FalseNegatives, res.FalsePositives)
	}
	// Mean gap between area-14 checks ≈ m*tp = 38 s (±50%: randomized).
	if res.MeanAttackedAreaGap < 19*time.Second || res.MeanAttackedAreaGap > 60*time.Second {
		t.Errorf("mean area-14 gap = %v, want ≈38s", res.MeanAttackedAreaGap)
	}
	// Full scan ≈ m*tp = 38 s.
	if res.MeanFullScanTime < 25*time.Second || res.MeanFullScanTime > 50*time.Second {
		t.Errorf("mean full scan = %v, want ≈38s", res.MeanFullScanTime)
	}
	if !strings.Contains(res.Render(), "area-14 checks") {
		t.Error("render missing rows")
	}
	if _, err := RunDetection(DetectionConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestFig7ShapeSmall(t *testing.T) {
	// A reduced Fig 7: three representative workloads, short window. The
	// full-scale run is pinned byte for byte by `make paper-check`.
	specs := workload.UnixBench()
	cfg := Fig7Config{
		Specs:  []workload.Spec{specs[0], specs[4], specs[7]}, // dhrystone, file_copy_256B, context_switching
		Tasks:  []int{1, 6},
		Window: 60 * time.Second,
		Seed:   9,
	}
	res, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.BaselineScore <= 0 || row.SATINScore <= 0 {
			t.Errorf("%s/%d-task: degenerate scores %d/%d", row.Name, row.Tasks, row.BaselineScore, row.SATINScore)
		}
		if row.Degradation < -0.01 || row.Degradation > 0.10 {
			t.Errorf("%s/%d-task: degradation %.4f out of plausible range", row.Name, row.Tasks, row.Degradation)
		}
	}
	// Shape: the two syscall-bound workloads degrade more than dhrystone.
	dhry, _ := res.Row("dhrystone2", 1)
	fc, _ := res.Row("file_copy_256B", 1)
	cs, _ := res.Row("context_switching", 1)
	if fc.Degradation <= dhry.Degradation || cs.Degradation <= dhry.Degradation {
		t.Errorf("worst-case workloads not worse: dhry %.4f, fc256 %.4f, ctxsw %.4f",
			dhry.Degradation, fc.Degradation, cs.Degradation)
	}
	if !strings.Contains(res.Render(), "AVERAGE") {
		t.Error("render missing average row")
	}
}

func TestAblationOrdering(t *testing.T) {
	cfg := DefaultAblationConfig()
	cfg.Depths = 5
	cfg.ScansPerDepth = 1
	res, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := res.Row(VariantFull)
	if err != nil {
		t.Fatal(err)
	}
	noDev, err := res.Row(VariantNoDeviation)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := res.Row(VariantWholeKernel)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := res.Row(VariantFixedCore)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rate() < 0.8 {
		t.Errorf("full SATIN detection rate %.2f, want >= 0.8", full.Rate())
	}
	if noDev.Rate() > 0.2 {
		t.Errorf("no-deviation rate %.2f; predictable wakes should be evadable", noDev.Rate())
	}
	if whole.Rate() > 0.3 {
		t.Errorf("whole-kernel rate %.2f; Equation 2 violation should lose", whole.Rate())
	}
	if fixed.Rate() > full.Rate() {
		t.Errorf("fixed-core rate %.2f exceeds full design %.2f", fixed.Rate(), full.Rate())
	}
	if !strings.Contains(res.Render(), "Detection rate") {
		t.Error("render missing header")
	}
	if _, err := RunAblation(AblationConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDetectionStableAcrossSeeds(t *testing.T) {
	// The verdict-level outcomes must not depend on the seed: across
	// several deterministic universes, SATIN detects every pass over the
	// attacked area and the prober stays FP/FN-free.
	for seed := uint64(100); seed < 105; seed++ {
		cfg := DefaultDetectionConfig()
		cfg.FullScans = 2
		cfg.PerRoundPeriod = 2 * time.Second
		cfg.Seed = seed
		res, err := RunDetection(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Detections != res.AttackedAreaChecks {
			t.Errorf("seed %d: %d/%d detections", seed, res.Detections, res.AttackedAreaChecks)
		}
		if res.FalseNegatives != 0 || res.FalsePositives != 0 {
			t.Errorf("seed %d: FN=%d FP=%d", seed, res.FalseNegatives, res.FalsePositives)
		}
	}
}

func TestEvasionStableAcrossSeeds(t *testing.T) {
	for seed := uint64(200); seed < 204; seed++ {
		res, err := RunEvasion(seed, 4, 2*time.Second)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.EvasionRate != 1.0 {
			t.Errorf("seed %d: evasion rate %.2f, want 1.0", seed, res.EvasionRate)
		}
	}
}
