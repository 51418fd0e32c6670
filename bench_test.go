package satin

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each runs the corresponding experiment driver
// and reports the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` regenerates every reported number. The
// cmd/benchtables binary prints the full rendered tables.

import (
	"context"
	"strings"
	"testing"
	"time"

	"satin/internal/experiment"
	"satin/internal/hw"
	"satin/internal/introspect"
)

// BenchmarkTable1IntrospectionTime regenerates Table I: per-byte secure
// world introspection times (hash vs snapshot, A53 vs A57).
func BenchmarkTable1IntrospectionTime(b *testing.B) {
	b.ReportAllocs()
	var res experiment.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunTable1(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, cell := range res.Cells {
		name := cell.Core.String() + "-" + cell.Technique.String() + "-avg-ns/B"
		b.ReportMetric(cell.PerByte.Mean*1e9, name)
	}
}

// BenchmarkSwitchTime regenerates the §IV-B1 Ts_switch measurement.
func BenchmarkSwitchTime(b *testing.B) {
	b.ReportAllocs()
	var res experiment.SwitchResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunSwitch(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.A53.Mean*1e6, "A53-Ts_switch-µs")
	b.ReportMetric(res.A57.Mean*1e6, "A57-Ts_switch-µs")
}

// BenchmarkRecoverTime regenerates the §IV-B2 Tns_recover measurement.
func BenchmarkRecoverTime(b *testing.B) {
	b.ReportAllocs()
	var res experiment.RecoverResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunRecover(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.A53.Mean*1e3, "A53-Tns_recover-ms")
	b.ReportMetric(res.A57.Mean*1e3, "A57-Tns_recover-ms")
}

// BenchmarkTable2ProbingThreshold regenerates Table II: probing thresholds
// across the five probing periods.
func BenchmarkTable2ProbingThreshold(b *testing.B) {
	b.ReportAllocs()
	var res experiment.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunTable2(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Thresholds.Mean*1e6, row.Period.String()+"-avg-µs")
	}
}

// BenchmarkFig4ThresholdStability regenerates Figure 4's box-plot data
// (same sampler as Table II; the metric here is the spread).
func BenchmarkFig4ThresholdStability(b *testing.B) {
	b.ReportAllocs()
	var res experiment.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunTable2(uint64(i + 100))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Box.Median*1e6, row.Period.String()+"-median-µs")
		b.ReportMetric(float64(len(row.Box.Outliers)), row.Period.String()+"-outliers")
	}
}

// BenchmarkSingleCoreProbing regenerates the §IV-B2 single-core-vs-all
// probing comparison (ratio ≈ 1/4).
func BenchmarkSingleCoreProbing(b *testing.B) {
	b.ReportAllocs()
	var res experiment.SingleCoreResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunSingleCore(uint64(i+1), 8*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Ratio, "single/all-ratio")
}

// BenchmarkFig3RaceTimeline regenerates Figure 3: the measured race
// timelines for a whole-kernel check (evader wins) and a SATIN-sized area
// check (defender wins).
func BenchmarkFig3RaceTimeline(b *testing.B) {
	b.ReportAllocs()
	var res []experiment.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunFig3(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		label := "baseline"
		if r.Detected {
			label = "satin"
		}
		b.ReportMetric((r.TouchMalicious-r.TStart).Seconds()*1e3, label+"-touch-ms")
		b.ReportMetric((r.TraceGone-r.TStart).Seconds()*1e3, label+"-recover-ms")
	}
}

// BenchmarkRaceAnalysis regenerates the §IV-C race analysis: Equation 2's
// S bound and the unprotected kernel fraction.
func BenchmarkRaceAnalysis(b *testing.B) {
	b.ReportAllocs()
	var res experiment.RaceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunRace(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SBound), "S-bound-bytes")
	b.ReportMetric(res.UnprotectedAnalytic*100, "unprotected-analytic-%")
	b.ReportMetric(res.UnprotectedEmpirical*100, "unprotected-empirical-%")
}

// BenchmarkEvasionVsBaseline regenerates the §IV/§VI premise: TZ-Evader's
// success against the randomized full-kernel baseline.
func BenchmarkEvasionVsBaseline(b *testing.B) {
	b.ReportAllocs()
	var res experiment.EvasionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunEvasion(uint64(i+1), 10, 8*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EvasionRate*100, "evasion-rate-%")
	b.ReportMetric(res.ActiveFraction*100, "attack-active-%")
}

// BenchmarkDetection regenerates the §VI-B1 headline experiment at paper
// scale: 190 SATIN rounds (10 full scans) vs TZ-Evader.
func BenchmarkDetection(b *testing.B) {
	b.ReportAllocs()
	var res experiment.DetectionResult
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultDetectionConfig()
		cfg.Seed = uint64(i + 1)
		var err error
		res, err = experiment.RunDetection(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.Detections), "detections")
	b.ReportMetric(float64(res.FalseNegatives), "prober-FN")
	b.ReportMetric(float64(res.FalsePositives), "prober-FP")
	b.ReportMetric(res.MeanAttackedAreaGap.Seconds(), "area14-gap-s")
	b.ReportMetric(res.MeanFullScanTime.Seconds(), "full-scan-s")
}

// BenchmarkDetectionProfiled is BenchmarkDetection with the causal span
// profiler attached — the attached-overhead half of the PR 5 bench guard
// (make bench-json diffs it against the committed profiler-off baseline;
// the target is ≤10% ns/op overhead). It reports the same metrics so the
// two runs pair by name after the sed rename in the Makefile.
func BenchmarkDetectionProfiled(b *testing.B) {
	b.ReportAllocs()
	var res experiment.DetectionResult
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultDetectionConfig()
		cfg.Seed = uint64(i + 1)
		cfg.Profile = true
		var err error
		res, err = experiment.RunDetection(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Profile == nil || res.Profile.Rounds != res.Rounds {
			b.Fatalf("profiled run lost spans: %+v", res.Profile)
		}
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.Detections), "detections")
	b.ReportMetric(float64(res.FalseNegatives), "prober-FN")
	b.ReportMetric(float64(res.FalsePositives), "prober-FP")
	b.ReportMetric(res.MeanAttackedAreaGap.Seconds(), "area14-gap-s")
	b.ReportMetric(res.MeanFullScanTime.Seconds(), "full-scan-s")
}

// BenchmarkFig7Overhead regenerates Figure 7: per-benchmark normalized
// degradation under SATIN, 1-task and 6-task.
func BenchmarkFig7Overhead(b *testing.B) {
	b.ReportAllocs()
	var res experiment.Fig7Result
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultFig7Config()
		cfg.Seed = uint64(i + 1)
		var err error
		res, err = experiment.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Average(1)*100, "avg-1task-%")
	b.ReportMetric(res.Average(6)*100, "avg-6task-%")
	if row, err := res.Row("file_copy_256B", 1); err == nil {
		b.ReportMetric(row.Degradation*100, "file_copy_256B-%")
	}
	if row, err := res.Row("context_switching", 1); err == nil {
		b.ReportMetric(row.Degradation*100, "context_switching-%")
	}
}

// BenchmarkAblation regenerates the design-choice ablation (DESIGN.md E11).
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	var res experiment.AblationResult
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultAblationConfig()
		cfg.Seed = uint64(i + 1)
		var err error
		res, err = experiment.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		name := strings.ReplaceAll(row.Variant.String(), " ", "-")
		name = strings.NewReplacer("(", "", ")", "").Replace(name)
		b.ReportMetric(row.Rate()*100, name+"-%")
	}
}

// BenchmarkMSweep regenerates the trace-size sweep (§IV-C observation 4):
// the M crossover where recovery stops beating a whole-kernel scan.
func BenchmarkMSweep(b *testing.B) {
	b.ReportAllocs()
	var res experiment.MSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunMSweep(uint64(i+1), 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MeasuredCrossoverM()), "crossover-M-bytes")
	b.ReportMetric(float64(res.PredictedCrossoverM), "predicted-M-bytes")
}

// BenchmarkInterruptFlood regenerates the §II-B/§V-B routing ablation: an
// SGI flood against non-preemptive (SATIN's SCR_EL3.IRQ=0) vs preemptive
// secure-world routing.
func BenchmarkInterruptFlood(b *testing.B) {
	b.ReportAllocs()
	var res experiment.FloodResult
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultFloodConfig()
		cfg.Seed = uint64(i + 1)
		var err error
		res, err = experiment.RunFlood(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Rate()*100, row.Routing.String()+"-detection-%")
		b.ReportMetric(row.MeanRound.Seconds()*1e3, row.Routing.String()+"-round-ms")
	}
}

// BenchmarkSyncBypass regenerates the §VII-A/§VII-C layered-defense study.
func BenchmarkSyncBypass(b *testing.B) {
	b.ReportAllocs()
	var res experiment.SyncBypassResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunSyncBypass(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(boolMetric(res.InstallDenied), "guard-denied")
	b.ReportMetric(boolMetric(res.BypassSucceeded), "bypass-ok")
	b.ReportMetric(float64(len(res.DirtyAreas)), "async-dirty-areas")
}

// BenchmarkUserProber regenerates the §III-B1 user-level prober evaluation.
func BenchmarkUserProber(b *testing.B) {
	b.ReportAllocs()
	var res experiment.UserProberResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunUserProber(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Delay.Seconds()*1e3, "Tns_delay-ms")
	b.ReportMetric(boolMetric(res.Capable()), "capable")
}

// BenchmarkKProber1Exposure regenerates the §III-C1 self-exposure study.
func BenchmarkKProber1Exposure(b *testing.B) {
	b.ReportAllocs()
	var res experiment.KProber1ExposureResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunKProber1Exposure(uint64(i+1), 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Area0Alarms), "area0-alarms")
	b.ReportMetric(float64(res.Passes), "passes")
}

// BenchmarkFullKernelHash measures the raw simulated cost drivers: one
// whole-kernel direct-hash check per core type (the ≈80 ms / ≈127 ms the
// race analysis builds on), as wall-clock work for the simulator.
func BenchmarkFullKernelHash(b *testing.B) {
	for _, core := range []hw.CoreType{hw.CortexA53, hw.CortexA57} {
		core := core
		b.Run(core.String(), func(b *testing.B) {
			res, err := experiment.RunTable1(1)
			if err != nil {
				b.Fatal(err)
			}
			cell, err := res.Cell(core, introspect.DirectHash)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_ = cell
			}
			b.ReportMetric(cell.PerByte.Mean*11916240*1e3, "kernel-check-ms")
		})
	}
}

// BenchmarkSensitivitySweep measures the fault-injection sensitivity sweep
// at a reduced but representative scale (2 magnitudes × 2 seeds, 4 full
// scans each), run serially so the number tracks the simulator's single-run
// hot path rather than worker-pool scheduling. BENCH_PR4.json records this
// as the second headline wall-clock number.
func BenchmarkSensitivitySweep(b *testing.B) {
	b.ReportAllocs()
	cfg := experiment.DefaultSensitivityConfig()
	cfg.Magnitudes = []float64{0, 2}
	cfg.Seeds = 2
	cfg.Workers = 1
	cfg.Detection.FullScans = 4
	var res experiment.SensitivityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunSensitivity(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].Detection.Mean*100, "mag0-detection-%")
	b.ReportMetric(res.Points[len(res.Points)-1].Detection.Mean*100, "mag2-detection-%")
}

// BenchmarkSteadyStateRounds measures the marginal cost of SATIN
// introspection rounds once the scenario is booted and warm: each b.N
// iteration advances an already-running scenario by 19 virtual seconds
// (≈19 rounds at tp = 1 s). Boot, golden-table hashing, and the first two
// full scans happen before the timer starts, so ns/op and allocs/op are the
// steady-state per-span numbers — the quantity the incremental hash cache
// and allocation-free scheduling target.
func BenchmarkSteadyStateRounds(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Tgoal = 19 * time.Second
	cfg.MaxRounds = 0
	cfg.Seed = 3
	sc, err := NewScenario(WithSeed(1), WithSATIN(cfg), WithObservability(false))
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up: two full scans.
	sc.Run(40 * time.Second)
	warm := len(sc.SATIN().Rounds())
	if warm == 0 {
		b.Fatal("no rounds completed during warm-up")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Run(19 * time.Second)
	}
	b.StopTimer()
	rounds := len(sc.SATIN().Rounds()) - warm
	if rounds == 0 {
		b.Fatal("no rounds completed during measurement")
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkScenario measures one full SATIN-vs-fast-evader run — the
// engine's hot path end to end. The `observability-off` variant is the
// zero-overhead-when-disabled check: with no bus, no registry, and no
// sinks, per-run allocations must not exceed the pre-observability
// baseline (publishes early-return on the nil bus and all metric handles
// are nil no-ops). The `observability-on` variant shows the cost of live
// timeline capture plus metrics.
func BenchmarkScenario(b *testing.B) {
	runOnce := func(b *testing.B, opts ...Option) {
		b.Helper()
		cfg := DefaultConfig()
		cfg.Tgoal = 19 * time.Second
		cfg.MaxRounds = 19
		cfg.Seed = 3
		opts = append([]Option{WithSeed(1), WithSATIN(cfg), WithFastEvader(0, 0)}, opts...)
		sc, err := NewScenario(opts...)
		if err != nil {
			b.Fatal(err)
		}
		sc.RunToCompletion()
		if len(sc.SATIN().Rounds()) != 19 {
			b.Fatalf("expected 19 rounds, got %d", len(sc.SATIN().Rounds()))
		}
	}
	b.Run("observability-off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, WithObservability(false))
		}
	})
	b.Run("observability-on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b)
		}
	})
	// The span profiler rides on the observability layer; this variant
	// shows its marginal cost over observability-on. Detached (the two
	// variants above) it costs zero — every SetProfiler target holds a nil
	// handle and each emit is one nil check (locked by the profile
	// package's AllocsPerRun test).
	b.Run("profiling-on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, WithProfiling(true))
		}
	})
}
