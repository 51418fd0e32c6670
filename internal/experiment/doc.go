// Package experiment contains one driver per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out. Each driver
// assembles its own platform, runs the simulation, and returns a typed
// result with a Render method that prints the same rows or series the
// paper reports.
//
// # Catalog
//
// Paper tables and figures:
//
//   - RunTable1 — Table I, secure-world introspection time per byte
//     (hash vs snapshot, A53 vs A57; 50 repetitions per cell).
//   - RunTable2 / Table2Result.RenderFig4 / ChartFig4 — Table II and
//     Figure 4, the probing threshold across five periods, from the
//     calibrated ThresholdModel.
//   - RunTable2ThreadLevel — the same quantity measured by the actual
//     six-thread prober, cross-validating the model (agreement ≈ 0.98).
//   - RunFig3 — Figure 3, the two-world race timeline with measured
//     instants, for a losing (whole-kernel) and winning (SATIN-area) check.
//   - RunFig7 — Figure 7, normalized UnixBench degradation under SATIN,
//     1-task and 6-task.
//
// Scalar measurements quoted in the paper's text:
//
//   - RunSwitch — Ts_switch (§IV-B1).
//   - RunRecover — Tns_recover (§IV-B2).
//   - RunSingleCore — single-core vs all-core probing precision (§IV-B2).
//   - RunUserProber — the user-level prober's Tns_delay (§III-B1).
//
// System-level experiments:
//
//   - RunRace — the §IV-C race analysis: Equation 2's S bound and the
//     ≈90% unprotected fraction, validated by a 20-depth empirical sweep.
//   - RunMSweep — §IV-C observation 4: the trace-size (M) crossover where
//     Tns_recover stops beating the scan.
//   - RunEvasion — TZ-Evader defeating the randomized whole-kernel
//     baseline (the paper's premise).
//   - RunDetection — the §VI-B1 headline experiment: 190 SATIN rounds,
//     10/10 detections, 0 prober false positives/negatives.
//   - RunAblation — SATIN's design choices (random core, random
//     deviation, divided areas) against best-response evaders.
//   - RunFlood — the §II-B/§V-B interrupt-routing ablation: an SGI flood
//     against non-preemptive vs preemptive secure execution.
//   - RunSyncBypass — §VII-A/§VII-C: synchronous guard, AP-flip bypass,
//     asynchronous catch of both traces.
//   - RunKProber1Exposure — §III-C1: SATIN flagging KProber-I's own
//     vector hijack.
//   - RunSensitivity — robustness of the §VI-B1 result under deterministic
//     fault injection: detection probability and evasion rate vs
//     perturbation magnitude (faultinject.ScaledPlan), with per-magnitude
//     confidence bands across seeds.
//
// Every driver returns a typed result with a Render method producing the
// paper-layout text table; cmd/benchtables prints them all and
// EXPERIMENTS.md records paper-vs-measured.
//
// # Multi-seed form
//
// The sweepable experiments (detection, evasion, race) register a per-seed
// trial (TrialDetection, TrialEvasion, TrialRace) that flattens one seed's
// run to named metrics. The trial is their only multi-seed form: a sweep is
// a campaign over it (internal/campaign), which is what `benchtables
// -seeds N` runs. Batches over Go values rather than data — RunSensitivity's
// per-magnitude DetectionConfig, RunDetectionProfileSweep's per-seed
// profile summaries — are Go closures on runner.Run, each returning the
// result shape its caller aggregates.
package experiment
