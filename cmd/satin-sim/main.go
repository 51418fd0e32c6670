// Command satin-sim runs a full attack-vs-defense scenario on the simulated
// Juno r1 board and prints a timeline summary: SATIN (or the baseline)
// introspecting the rich OS while TZ-Evader probes, hides, and reinstalls.
//
// Usage:
//
//	satin-sim                                   # SATIN vs fast TZ-Evader, 10 full scans
//	satin-sim -defense baseline -rounds 5       # baseline checker instead
//	satin-sim -evader thread                    # full thread-level evader
//	satin-sim -evader none                      # clean system
//	satin-sim -tp 4s -scans 3 -seed 9 -v        # tweak schedule; -v prints per-round lines
//	satin-sim -trace-out run.jsonl              # stream every event live (.csv for CSV)
//	satin-sim -metrics-out metrics.csv          # end-of-run metrics snapshot
//	satin-sim -lint-trace run.jsonl             # validate a streamed JSONL trace
//	satin-sim -faults "scale:2"                 # fault-injected run (grammar in EXPERIMENTS.md)
//	satin-sim -faults "hotplug:core=1,off=30s,on=200s;jitter:0.1"
//	satin-sim -chrome-trace spans.json          # causal span profile for Perfetto / chrome://tracing
//	satin-sim -profile-out profile.txt          # per-core virtual-time attribution table
//	satin-sim -diff a.jsonl b.jsonl             # align two trace exports, report divergence
//	satin-sim -diff-budget 1ms -diff a.jsonl b.jsonl  # tolerate up to 1ms of skew per span
//	satin-sim -lint-chrome spans.json           # validate a Chrome trace_event JSON file
//	satin-sim -spec scenario.json               # run a declarative scenario spec file
//	satin-sim -scans 1 -dump-spec               # print the flags' effective spec, don't run
//
// -diff, -lint-trace and -lint-chrome are tool modes: each reads only its
// trace file(s), and -diff its -diff-budget, so any other flag beside one,
// or two of them together, is an error that names the flags. Likewise a
// scenario flag the chosen -defense or -evader does not read (-scans
// without SATIN, -rounds without the baseline, -tp under -defense none,
// -threshold under -evader none) is an error that names it, and so is a
// -tp or -threshold that is not positive.
//
// A spec file is the whole scenario (seed, defense, evader, faults, run
// horizon — see EXPERIMENTS.md "Spec files"), so scenario-shaping flags
// cannot be combined with -spec; export flags (-trace-out, -timeline, ...)
// can. Every flag invocation is internally synthesized into the same spec
// form — -dump-spec prints it, and running the printed file reproduces the
// flag run byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"satin"
	"satin/internal/campaign"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "satin-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("satin-sim", flag.ContinueOnError)
	fs.SetOutput(out)
	specPath := fs.String("spec", "", `run the scenario described by this JSON spec file (see EXPERIMENTS.md "Spec files")`)
	dumpSpec := fs.Bool("dump-spec", false, "print the effective canonical scenario spec as JSON and exit without running")
	dumpCampaign := fs.Bool("dump-campaign", false, "print a one-cell campaign spec wrapping the effective scenario and exit without running (a grid/seed-range starting point for benchtables -campaign)")
	seed := fs.Uint64("seed", 1, "root seed")
	defense := fs.String("defense", "satin", "defense: satin | baseline | none")
	evader := fs.String("evader", "fast", "attacker: fast | thread | none")
	tp := fs.Duration("tp", 8*time.Second, "average period between introspection rounds")
	scans := fs.Int("scans", 10, "full kernel scans to run (SATIN)")
	rounds := fs.Int("rounds", 10, "rounds to run (baseline)")
	threshold := fs.Duration("threshold", satin.DefaultThreshold, "evader probing threshold")
	verbose := fs.Bool("v", false, "print each round")
	timeline := fs.String("timeline", "", "write the merged event timeline to this file (.json for JSON, else text)")
	traceOut := fs.String("trace-out", "", "stream events live to this file as they happen (.csv for CSV, else JSONL)")
	metricsOut := fs.String("metrics-out", "", "write the end-of-run metrics snapshot to this file (.csv for CSV, else text)")
	lintTrace := fs.String("lint-trace", "", "validate a streamed JSONL trace file and exit")
	chromeTrace := fs.String("chrome-trace", "", "write a Chrome/Perfetto trace_event JSON span profile to this file (attaches the profiler)")
	profileOut := fs.String("profile-out", "", "write the per-core virtual-time attribution table to this file (attaches the profiler)")
	diff := fs.String("diff", "", "diff this JSONL trace against the trace given as positional argument, then exit")
	diffBudget := fs.Duration("diff-budget", 0, "largest per-span timing divergence -diff tolerates (0 = exact)")
	lintChrome := fs.String("lint-chrome", "", "validate a Chrome trace_event JSON file and exit")
	routing := fs.String("routing", "nonpreemptive", "NS interrupt routing: nonpreemptive | preemptive")
	flood := fs.Float64("flood", 0, "SGI flood rate per core (interrupts/s, at most 1e9); 0 disables")
	guard := fs.String("guard", "off", "synchronous guard: off | on | bypassed")
	faults := fs.String("faults", "", `fault-injection plan, e.g. "scale:2" or "dvfs:at=10s,factor=0.5;irq:p=0.1,delay=100us" (empty = none)`)
	checkpointOut := fs.String("checkpoint-out", "", "run the (fault-free) scenario to its horizon, snapshot it there, and write the checkpoint to this file (see docs/CHECKPOINT.md)")
	resumeFrom := fs.String("resume-from", "", "restore this checkpoint file into the scenario and run only the remaining horizon")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkToolFlags(fs); err != nil {
		return err
	}

	if *lintTrace != "" {
		events, err := lintTraceFile(*lintTrace)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace ok: %d events in %s\n", events, *lintTrace)
		return nil
	}
	if *lintChrome != "" {
		f, err := os.Open(*lintChrome)
		if err != nil {
			return fmt.Errorf("opening chrome trace: %w", err)
		}
		defer f.Close()
		n, err := satin.ValidateChromeTrace(f)
		if err != nil {
			return fmt.Errorf("chrome trace %s: %w", *lintChrome, err)
		}
		fmt.Fprintf(out, "chrome trace ok: %d events in %s\n", n, *lintChrome)
		return nil
	}
	if *diff != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-diff needs exactly one positional trace file to compare against, got %d", fs.NArg())
		}
		return diffTraceFiles(out, *diff, fs.Arg(0), *diffBudget)
	}

	// The flags are a synthesis layer: both modes produce a scenario spec,
	// and everything downstream (build, drive, exports) runs off the spec.
	var s satin.ScenarioSpec
	if *specPath != "" {
		if set := scenarioFlagsSet(fs); len(set) > 0 {
			return fmt.Errorf("-%s cannot be combined with -spec (the spec file describes the scenario; use -dump-spec to inspect it)", set[0])
		}
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return fmt.Errorf("reading spec: %w", err)
		}
		if s, err = satin.ParseSpec(data); err != nil {
			return fmt.Errorf("spec %s: %w", *specPath, err)
		}
	} else {
		var err error
		if s, err = specFromFlags(*seed, *defense, *evader, *tp, *scans, *rounds, *threshold, *routing, *guard, *faults, *flood); err != nil {
			return err
		}
		if err := checkScenarioFlags(fs, *defense, *evader, *tp, *threshold); err != nil {
			return err
		}
	}
	// Export flags compose with either mode, overriding the spec's own
	// export section entry by entry.
	applyExportFlags(&s, *timeline, *traceOut, *metricsOut, *chromeTrace, *profileOut)
	s, err := satin.CanonicalizeSpec(s)
	if err != nil {
		if *specPath != "" {
			return fmt.Errorf("spec %s: %w", *specPath, err)
		}
		return err
	}
	if *dumpSpec {
		b, err := satin.MarshalSpec(s)
		if err != nil {
			return err
		}
		_, err = out.Write(b)
		return err
	}
	if *dumpCampaign {
		// Campaign cells write the shared result file, never per-run
		// artifacts, so the scenario's export section is stripped.
		scenario := s.Clone()
		scenario.Export = nil
		canon, err := campaign.Canonicalize(campaign.Spec{
			Version:  campaign.CurrentVersion,
			Name:     scenario.Name,
			Scenario: &scenario,
			Seeds:    campaign.SeedRange{Base: scenario.Seed, Count: 1},
		})
		if err != nil {
			return err
		}
		b, err := campaign.Marshal(canon)
		if err != nil {
			return err
		}
		_, err = out.Write(b)
		return err
	}
	var exp satin.SpecExport
	if s.Export != nil {
		exp = *s.Export
	}

	if *checkpointOut != "" && *resumeFrom != "" {
		return fmt.Errorf("-checkpoint-out and -resume-from cannot be combined")
	}
	if *checkpointOut != "" && (s.Run.ToCompletion || s.Run.For <= 0) {
		return fmt.Errorf("-checkpoint-out snapshots at the run horizon; the scenario needs a fixed run.for duration")
	}
	var snap *satin.Snapshot
	if *resumeFrom != "" {
		snap, err = satin.ReadCheckpoint(*resumeFrom)
		if err != nil {
			return err
		}
		if _, err := satin.ValidateResume(snap, s); err != nil {
			return fmt.Errorf("checkpoint %s: %w", *resumeFrom, err)
		}
	}

	sc, err := satin.FromSpec(s)
	if err != nil {
		return err
	}
	var sink *satin.StreamSink
	if exp.Trace != "" {
		format := satin.ExportJSONL
		if strings.HasSuffix(exp.Trace, ".csv") {
			format = satin.ExportCSV
		}
		f, err := os.Create(exp.Trace)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		defer f.Close()
		sink, err = satin.NewStreamSink(f, format)
		if err != nil {
			return err
		}
		// Subscribe before driving the scenario: the sink sees each event
		// the instant it is published.
		sc.Bus().Subscribe(sink.OnEvent)
	}
	if s := sc.SATIN(); s != nil && *verbose {
		s.OnRound(func(r satin.Round) {
			verdict := "clean"
			if !r.Clean {
				verdict = "ALARM"
			}
			fmt.Fprintf(out, "[%12v] round %3d: core %d area %2d %8v %s\n",
				r.Started.Duration().Truncate(time.Millisecond), r.Index, r.CoreID, r.Area,
				r.Elapsed().Truncate(time.Microsecond), verdict)
		})
	}
	switch {
	case snap != nil:
		// Restore after the sink subscription: the timeline replay publishes
		// the prefix's events, so a streamed trace is byte-identical to a
		// from-scratch run's.
		if err := sc.RestoreSnapshot(snap); err != nil {
			return fmt.Errorf("checkpoint %s: %w", *resumeFrom, err)
		}
		fmt.Fprintf(out, "resumed from %s at %v (%d dirty pages, %d claims)\n",
			*resumeFrom, snap.State.Now.Duration().Truncate(time.Millisecond), len(snap.Pages), len(snap.State.Claims))
		satin.RunRemaining(sc, s)
	case *checkpointOut != "":
		key, err := satin.CheckpointKey(s)
		if err != nil {
			return err
		}
		snapOut, err := sc.Checkpoint(time.Duration(s.Run.For), key)
		if err != nil {
			return err
		}
		if err := satin.WriteCheckpoint(*checkpointOut, snapOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint: snapshot at %v (%d dirty pages, %d claims) written to %s\n",
			snapOut.State.Now.Duration().Truncate(time.Millisecond), len(snapOut.Pages), len(snapOut.State.Claims), *checkpointOut)
	default:
		satin.DriveSpec(sc, s)
	}

	// The summary renders from the scenario's own end-of-run Report; only
	// per-alarm details and thread-evader staleness need the component
	// accessors.
	rep := sc.Report()
	fmt.Fprintf(out, "simulated %v of board time\n", rep.Elapsed.Truncate(time.Millisecond))
	if s := sc.SATIN(); s != nil {
		fmt.Fprintf(out, "SATIN: %d rounds, %d full scans, %d alarms\n",
			rep.SATINRounds, rep.FullScans, rep.Alarms)
		for _, a := range s.Alarms() {
			fmt.Fprintf(out, "  alarm: round %d flagged area %d at %v\n", a.Round, a.Area, a.At.Duration().Truncate(time.Millisecond))
		}
	}
	if sc.Baseline() != nil {
		fmt.Fprintf(out, "baseline: %d rounds, %d reported clean\n", rep.BaselineRounds, rep.BaselineClean)
	}
	if rk := sc.Rootkit(); rk != nil {
		fmt.Fprintf(out, "rootkit: state %v, %d state transitions\n", rep.RootkitState, len(rk.Transitions()))
	}
	if sc.FastEvader() != nil {
		fmt.Fprintf(out, "evader: %d suspect events\n", rep.Suspects)
	}
	if te := sc.ThreadEvader(); te != nil {
		fmt.Fprintf(out, "evader: %d suspect events, max staleness %v\n", rep.Suspects, te.MaxStaleness())
	}
	if inj := sc.Faults(); inj != nil {
		fmt.Fprintf(out, "faults: %d injected\n", inj.Injected())
		if s := sc.SATIN(); s != nil && s.ReroutedRounds() > 0 {
			fmt.Fprintf(out, "  %d rounds re-routed around offline cores\n", s.ReroutedRounds())
		}
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events streamed to %s\n", sink.Events(), exp.Trace)
	}
	if p := sc.Profiler(); p != nil {
		if exp.ChromeTrace != "" {
			f, err := os.Create(exp.ChromeTrace)
			if err != nil {
				return fmt.Errorf("creating chrome trace file: %w", err)
			}
			defer f.Close()
			if err := p.WriteChromeTrace(f, rep.Elapsed); err != nil {
				return err
			}
			fmt.Fprintf(out, "chrome trace: %d spans written to %s\n", p.SpanCount(), exp.ChromeTrace)
		}
		if exp.Profile != "" {
			f, err := os.Create(exp.Profile)
			if err != nil {
				return fmt.Errorf("creating profile file: %w", err)
			}
			defer f.Close()
			if _, err := io.WriteString(f, p.Summary(rep.Elapsed).Render()); err != nil {
				return err
			}
			fmt.Fprintf(out, "profile: %d spans attributed to %s\n", p.SpanCount(), exp.Profile)
		}
	}
	if exp.Metrics != "" {
		f, err := os.Create(exp.Metrics)
		if err != nil {
			return fmt.Errorf("creating metrics file: %w", err)
		}
		defer f.Close()
		if strings.HasSuffix(exp.Metrics, ".csv") {
			err = rep.Metrics.WriteCSV(f)
		} else {
			_, err = io.WriteString(f, rep.Metrics.String())
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics: %d metrics written to %s\n", len(rep.Metrics.Rows), exp.Metrics)
	}
	if exp.Timeline != "" {
		f, err := os.Create(exp.Timeline)
		if err != nil {
			return fmt.Errorf("creating timeline file: %w", err)
		}
		defer f.Close()
		tl := sc.Timeline()
		if strings.HasSuffix(exp.Timeline, ".json") {
			err = tl.WriteJSON(f)
		} else {
			err = tl.WriteText(f)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline: %d events written to %s\n", tl.Len(), exp.Timeline)
	}
	return nil
}

// toolModes are the flags that turn satin-sim from a simulator into a
// trace tool: each reads its own file(s) and exits.
var toolModes = map[string]bool{"diff": true, "lint-trace": true, "lint-chrome": true}

// checkToolFlags rejects two tool modes together, any flag set beside a
// tool mode other than -diff's -diff-budget, and -diff-budget without
// -diff, naming the flags, so that none is silently dropped.
func checkToolFlags(fs *flag.FlagSet) error {
	var modes, others []string
	budget := false
	fs.Visit(func(f *flag.Flag) {
		switch {
		case toolModes[f.Name]:
			modes = append(modes, "-"+f.Name)
		case f.Name == "diff-budget":
			budget = true
		default:
			others = append(others, "-"+f.Name)
		}
	})
	switch {
	case len(modes) > 1:
		return fmt.Errorf("%s and %s are separate tool modes; use one", modes[0], modes[1])
	case budget && (len(modes) == 0 || modes[0] != "-diff"):
		return fmt.Errorf("-diff-budget sets the budget of -diff; it needs -diff")
	case len(modes) == 1 && len(others) > 0:
		return fmt.Errorf("%s: flags that %s does not read", strings.Join(others, ", "), modes[0])
	}
	return nil
}

// scenarioFlagNames are the flags that describe the scenario itself — in
// -spec mode the file is the single source of truth, so setting any of them
// alongside -spec is an error. Export and output flags stay composable.
var scenarioFlagNames = map[string]bool{
	"seed": true, "defense": true, "evader": true, "tp": true, "scans": true,
	"rounds": true, "threshold": true, "routing": true, "flood": true,
	"guard": true, "faults": true,
}

// scenarioFlagsSet lists the scenario flags explicitly set on the command
// line, in visit order.
func scenarioFlagsSet(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if scenarioFlagNames[f.Name] {
			set = append(set, f.Name)
		}
	})
	return set
}

// checkScenarioFlags names every flag set on the command line that the
// chosen -defense or -evader does not read, so that none is silently
// dropped, and rejects a -tp or -threshold that is not positive. -scans is
// read by SATIN only, -rounds by the baseline only, -tp by either defense,
// and -threshold by either evader.
func checkScenarioFlags(fs *flag.FlagSet, defense, evader string, tp, threshold time.Duration) error {
	var byDefense, byEvader []string
	fs.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "scans" && defense != "satin",
			f.Name == "rounds" && defense != "baseline",
			f.Name == "tp" && defense == "none":
			byDefense = append(byDefense, "-"+f.Name)
		case f.Name == "threshold" && evader == "none":
			byEvader = append(byEvader, "-"+f.Name)
		}
	})
	var unread []string
	if len(byDefense) > 0 {
		unread = append(unread, fmt.Sprintf("%s: flags that -defense %s does not read", strings.Join(byDefense, ", "), defense))
	}
	if len(byEvader) > 0 {
		unread = append(unread, fmt.Sprintf("%s: flags that -evader %s does not read", strings.Join(byEvader, ", "), evader))
	}
	switch {
	case len(unread) > 0:
		return fmt.Errorf("%s", strings.Join(unread, "; "))
	case tp <= 0:
		return fmt.Errorf("-tp %v: the period must be positive", tp)
	case threshold <= 0:
		return fmt.Errorf("-threshold %v: the threshold must be positive", threshold)
	}
	return nil
}

// specFromFlags synthesizes a scenario spec from the classic flag surface —
// the same scenario those flags have always built, now expressed as the
// declarative artifact (`-dump-spec` prints it). The SATIN section follows
// the historical conventions: Tgoal = 19·tp, MaxRounds = scans·19, and the
// defense seed left at zero so it derives from the root seed (root+2).
func specFromFlags(seed uint64, defense, evader string, tp time.Duration, scans, rounds int, threshold time.Duration, routing, guard, faults string, flood float64) (satin.ScenarioSpec, error) {
	s := satin.ScenarioSpec{Version: satin.ScenarioSpecVersion, Seed: seed, Faults: faults}
	switch routing {
	case "nonpreemptive", "preemptive":
		s.Routing = routing
	default:
		return s, fmt.Errorf("unknown routing %q", routing)
	}
	switch guard {
	case "off", "on", "bypassed":
		s.Guard = guard
	default:
		return s, fmt.Errorf("unknown guard %q", guard)
	}
	if flood != 0 {
		s.Workload = &satin.SpecWorkload{FloodRate: flood}
	}
	switch evader {
	case "fast", "thread":
		s.Evader = satin.SpecEvader{Kind: evader, Threshold: satin.SpecDuration(threshold)}
	case "none":
		s.Evader = satin.SpecEvader{Kind: "none"}
	default:
		return s, fmt.Errorf("unknown evader %q", evader)
	}
	switch defense {
	case "satin":
		s.Defense = satin.SpecDefense{Kind: "satin", SATIN: &satin.SpecSATINConfig{
			Tgoal:     satin.SpecDuration(19 * tp),
			MaxRounds: scans * 19,
		}}
	case "baseline":
		s.Defense = satin.SpecDefense{Kind: "baseline", Baseline: &satin.SpecBaselineConfig{
			Period:          satin.SpecDuration(tp),
			RandomizePeriod: true,
			Selection:       "random",
			Technique:       "direct",
			MaxRounds:       rounds,
		}}
	case "none":
		s.Defense = satin.SpecDefense{Kind: "none"}
	default:
		return s, fmt.Errorf("unknown defense %q", defense)
	}
	switch {
	case defense == "none" && evader == "none":
		return s, fmt.Errorf("nothing to simulate: pick a defense or an evader")
	case defense == "none":
		// Attack-only runs have no natural end; watch for a minute.
		s.Run = satin.SpecRun{For: satin.SpecDuration(time.Minute)}
	case evader == "thread" || flood > 0:
		// Thread-level evaders and floods schedule events forever, so the
		// queue never drains; run a horizon generous enough for every
		// randomized round to land.
		n := scans * 19
		if defense == "baseline" {
			n = rounds
		}
		s.Run = satin.SpecRun{For: satin.SpecDuration(time.Duration(n+7) * 2 * tp)}
	default:
		s.Run = satin.SpecRun{ToCompletion: true}
	}
	return s, nil
}

// applyExportFlags merges the export flags over the spec's export section;
// a set flag wins over the spec entry for the same artifact.
func applyExportFlags(s *satin.ScenarioSpec, timeline, trace, metrics, chromeTrace, profile string) {
	if timeline == "" && trace == "" && metrics == "" && chromeTrace == "" && profile == "" {
		return
	}
	if s.Export == nil {
		s.Export = &satin.SpecExport{}
	}
	if timeline != "" {
		s.Export.Timeline = timeline
	}
	if trace != "" {
		s.Export.Trace = trace
	}
	if metrics != "" {
		s.Export.Metrics = metrics
	}
	if chromeTrace != "" {
		s.Export.ChromeTrace = chromeTrace
	}
	if profile != "" {
		s.Export.Profile = profile
	}
}

// lintTraceFile validates a streamed JSONL trace and reports the event
// count — the CI smoke check for the export path.
func lintTraceFile(path string) (int, error) {
	events, err := readTraceFile(path)
	if err != nil {
		return 0, err
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("trace %s contains no events", path)
	}
	if err := satin.CheckTraceOrdered(events); err != nil {
		return 0, fmt.Errorf("trace %s: %w", path, err)
	}
	return len(events), nil
}

// readTraceFile loads a streamed JSONL trace export.
func readTraceFile(path string) ([]satin.TimelineEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening trace: %w", err)
	}
	defer f.Close()
	events, err := satin.ReadTraceJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return events, nil
}

// diffTraceFiles aligns two JSONL trace exports and prints the divergence
// report; a divergence beyond budget is an error (non-zero exit).
func diffTraceFiles(out io.Writer, pathA, pathB string, budget time.Duration) error {
	a, err := readTraceFile(pathA)
	if err != nil {
		return err
	}
	b, err := readTraceFile(pathB)
	if err != nil {
		return err
	}
	rep := satin.DiffTraces(a, b)
	fmt.Fprint(out, rep.Render(budget))
	if !rep.WithinBudget(budget) {
		return fmt.Errorf("traces %s and %s diverge beyond budget %v", pathA, pathB, budget)
	}
	return nil
}
