// Command benchtables regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout, with paper-reported
// values alongside where applicable. It is the source of EXPERIMENTS.md.
//
// Usage:
//
//	benchtables            # everything
//	benchtables -only table1,table2,fig3,fig4,switch,recover,singlecore,race,
//	            evasion,detection,fig7,ablation,flood,syncbypass,userprober,
//	            kprober1,sensitivity
//	benchtables -detection # shorthand for -only detection (any experiment name)
//	benchtables -seed 7    # different deterministic universe
//	benchtables -quick     # reduced Fig 7 window / sensitivity grid (smoke runs)
//
// Every experiment is dispatched through experiment.Registry() — the same
// name-keyed table the campaign cell executor uses — so `-only <name>`, the
// shorthand flags, and campaign cells all agree on what an experiment name
// means.
//
// The sensitivity experiment reruns the detection experiment at each
// fault-injection magnitude across -seeds seeds (default 8), the whole grid
// one batch on the -workers pool, charting detection probability against
// perturbation magnitude (see EXPERIMENTS.md "Sensitivity & fault
// injection").
//
// Multi-seed sweeps: with -seeds N (N > 1) the sweep-capable experiments
// (detection, evasion, race) rerun across seeds seed..seed+N-1 on a worker
// pool (-workers, default GOMAXPROCS) and report per-metric distributions
// instead of one universe's numbers. Each sweep is a one-combination
// campaign over the experiment's registry trial, run in a scratch result
// file through the same campaign.Run + MergeSweeps path as -campaign.
// Aggregation is in seed order, so the output is byte-identical for any
// -workers value.
//
//	benchtables -detection -seeds 32 -workers 8
//
// Sweep observability: -progress streams per-trial completions to stderr
// (completion order, wall clock — diagnostic only), and -metrics-out FILE
// exports every selected sweep's per-seed samples as deterministic
// `experiment,metric,seed,value` CSV rows.
//
//	benchtables -detection -seeds 32 -progress -metrics-out detection.csv
//
// Spec sweeps: -spec FILE runs a scenario spec file (see EXPERIMENTS.md
// "Spec files") as its own sweep instead of the built-in experiments: the
// template (its export section ignored) becomes a one-combination campaign
// over seeds -seed..-seed+N-1, and each cell runs through the same trial
// the satin-sim -spec path uses.
//
//	benchtables -spec testdata/specs/clean.json -seeds 8 -metrics-out clean.csv
//
// Campaigns: -campaign FILE expands a campaign spec (see EXPERIMENTS.md
// "Campaigns") into its cell grid and executes it with checkpointed resume:
//
//	benchtables -campaign grid.json -campaign-out grid.result -progress
//
// A finalized result file renders without running a cell, so the tables of
// a campaign a satin-serve fleet computed (see EXPERIMENTS.md "Sharded
// campaigns") are one download and one render away:
//
//	satin-serve -url URL -result c1 -out merged.result
//	benchtables -campaign grid.json -campaign-out merged.result
//
// A campaign run reads none of the experiment and sweep flags; setting one
// beside -campaign is an error that names the flag.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"satin"
	"satin/internal/campaign"
	"satin/internal/experiment"
	"satin/internal/runner"
)

func main() {
	if err := runWith(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
		os.Exit(1)
	}
}

// run keeps the historical two-argument form (used throughout the tests);
// progress output is discarded.
func run(args []string, out io.Writer) error {
	return runWith(args, out, io.Discard)
}

func runWith(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(out)
	seed := fs.Uint64("seed", 1, "root seed for all deterministic streams")
	only := fs.String("only", "", "comma-separated experiment list (default: all)")
	quick := fs.Bool("quick", false, "shrink the Fig 7 measurement window")
	seeds := fs.Int("seeds", 1, "number of independent seeds; > 1 switches detection/evasion/race to sweep mode")
	workers := fs.Int("workers", 0, "worker goroutines for multi-seed sweeps (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "stream per-trial sweep progress to stderr")
	metricsOut := fs.String("metrics-out", "", "export every sweep's per-seed samples to this CSV file (needs -seeds > 1)")
	profileOut := fs.String("profile-out", "", "run the profiled detection sweep and write the merged per-core span attribution table to this file")
	specFile := fs.String("spec", "", "sweep this scenario spec file across -seeds seeds instead of a built-in experiment")
	campaignFile := fs.String("campaign", "", "execute this campaign spec file (grid × faults × seeds) with checkpointed resume")
	campaignOut := fs.String("campaign-out", "", "campaign result/checkpoint file (default: <campaign>.result)")
	campaignMaxCells := fs.Int("campaign-max-cells", 0, "stop the campaign after N newly completed cells (checkpointed; 0 = run to completion)")

	defs := experiment.Registry()
	// Every experiment name is also a boolean shorthand flag:
	// `-detection` == `-only detection`.
	shorthand := map[string]*bool{}
	for _, def := range defs {
		shorthand[def.Name] = fs.Bool(def.Name, false, fmt.Sprintf("run the %s experiment (shorthand for -only %s)", def.Name, def.Name))
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectRunFlags(fs, shorthand, *campaignFile); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: need at least 1", *seeds)
	}
	if *metricsOut != "" && *seeds < 2 {
		return fmt.Errorf("-metrics-out exports per-seed sweep samples; it needs -seeds N > 1")
	}
	if *campaignFile != "" {
		return runCampaignFile(out, errOut, *campaignFile, *campaignOut, *workers, *campaignMaxCells, *progress)
	}
	if *campaignOut != "" || *campaignMaxCells != 0 {
		return fmt.Errorf("-campaign-out/-campaign-max-cells configure a campaign run; they need -campaign FILE")
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if _, ok := experiment.Lookup(name); !ok {
				return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(experiment.Names(), ", "))
			}
			want[name] = true
		}
	}
	for name, set := range shorthand {
		if *set {
			want[name] = true
		}
	}
	// With -profile-out or -spec and no experiment named, that sweep IS the
	// run: don't drag the full suite along.
	selected := func(name string) bool {
		if len(want) == 0 {
			return *profileOut == "" && *specFile == ""
		}
		return want[name]
	}

	var progressOut io.Writer
	if *progress {
		progressOut = errOut
	}
	ran := 0
	var sweeps []*runner.Sweep
	for _, def := range defs {
		if !selected(def.Name) {
			continue
		}
		if *seeds > 1 && def.Sweepable() {
			sw, err := runSweep(campaign.Spec{Experiment: def.Name, Seeds: campaign.SeedRange{Base: *seed, Count: *seeds}},
				def.SweepName, def.Name, *workers, progressOut)
			if err != nil {
				return fmt.Errorf("%s: %w", def.Name, err)
			}
			section(out, def.SweepTitle)
			fmt.Fprint(out, sw.Render())
			sweeps = append(sweeps, sw)
		} else if err := def.Run(out, experiment.RunConfig{
			Seed: *seed, Quick: *quick, Seeds: *seeds, Workers: *workers,
		}); err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		ran++
	}
	if *specFile != "" {
		sw, err := runSpecFileSweep(*specFile, *seed, *seeds, *workers, progressOut)
		if err != nil {
			return err
		}
		section(out, fmt.Sprintf("Spec sweep — %s (%s, %d seed(s))", sw.Name, *specFile, *seeds))
		fmt.Fprint(out, sw.Render())
		sweeps = append(sweeps, sw)
		ran++
	}
	if *profileOut != "" {
		if err := writeProfileSweep(out, *profileOut, *seed, *seeds, *workers, *quick); err != nil {
			return err
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", *only)
	}
	if *metricsOut != "" {
		if len(sweeps) == 0 {
			return fmt.Errorf("-metrics-out: no sweep-capable experiment selected")
		}
		if err := writeSweepCSV(*metricsOut, sweeps); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nmetrics: %d sweeps exported to %s\n", len(sweeps), *metricsOut)
	}
	return nil
}

// rejectRunFlags fails a -campaign invocation that also sets a flag only
// experiment and sweep runs read, naming each such flag, so that none is
// silently dropped.
func rejectRunFlags(fs *flag.FlagSet, shorthand map[string]*bool, campaignFile string) error {
	if campaignFile == "" {
		return nil
	}
	runFlags := map[string]bool{"seed": true, "seeds": true, "only": true, "quick": true, "spec": true, "metrics-out": true, "profile-out": true}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if runFlags[f.Name] || shorthand[f.Name] != nil {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		return fmt.Errorf("%s: experiment and sweep flags that -campaign does not read", strings.Join(stray, ", "))
	}
	return nil
}

// writeSweepCSV concatenates the sweeps' per-seed samples into one CSV file
// with a single header row.
func writeSweepCSV(path string, sweeps []*runner.Sweep) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating metrics file: %w", err)
	}
	defer f.Close()
	for i, sw := range sweeps {
		var buf bytes.Buffer
		if err := sw.WriteCSV(&buf); err != nil {
			return err
		}
		data := buf.Bytes()
		if i > 0 {
			// Drop the repeated header line.
			if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
				data = data[nl+1:]
			}
		}
		if _, err := f.Write(data); err != nil {
			return fmt.Errorf("writing metrics file: %w", err)
		}
	}
	return nil
}

// runSweep runs one sweep that data can describe — a registry experiment's
// trial or a scenario template, over c.Seeds — as a one-combination campaign
// in a scratch result file, and returns that campaign's single sweep renamed
// to name. The scratch directory is removed on return. With progress
// non-nil, every completed seed prints "<label>: done/total seed N in T ok".
func runSweep(c campaign.Spec, name, label string, workers int, progress io.Writer) (*runner.Sweep, error) {
	dir, err := os.MkdirTemp("", "benchtables-sweep-*")
	if err != nil {
		return nil, fmt.Errorf("sweep scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	opt := campaign.RunOptions{Workers: workers, SpecTrial: satin.RunSpecTrial}
	if progress != nil {
		opt.CellDone = func(e campaign.CellEvent) {
			status := "ok"
			if e.Result.Failed() {
				status = "FAILED: " + e.Result.Err
			}
			fmt.Fprintf(progress, "%s: %d/%d seed %d in %v %s\n",
				label, e.Done, e.Total, e.Cell.Seed, e.Wall.Truncate(time.Millisecond), status)
		}
	}
	res, err := campaign.Run(context.Background(), c, filepath.Join(dir, "sweep.result"), opt)
	if err != nil {
		return nil, err
	}
	sw := campaign.MergeSweeps(res.Cells, res.Results)[0]
	sw.Name = name
	return sw, nil
}

// runSpecFileSweep sweeps the spec template in path across seeds
// seed..seed+seeds-1 with the facade's canonical trial — the same builder
// and metric reduction satin-sim -spec uses, so per-seed samples line up
// with single runs of the instantiated specs.
func runSpecFileSweep(path string, seed uint64, seeds, workers int, progress io.Writer) (*runner.Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading spec: %w", err)
	}
	tmpl, err := satin.ParseSpec(data)
	if err == nil {
		tmpl, err = satin.CanonicalizeSpec(tmpl)
	}
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	// A sweep writes no per-run artifacts, and campaign cells refuse an
	// export section: it is checked above, then ignored.
	tmpl.Export = nil
	name := tmpl.Name
	if name == "" {
		name = "spec sweep"
	}
	sw, err := runSweep(campaign.Spec{Scenario: &tmpl, Seeds: campaign.SeedRange{Base: seed, Count: seeds}},
		name, "spec", workers, progress)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return sw, nil
}

// writeProfileSweep runs the §VI-B1 detection experiment with the span
// profiler attached for every seed, renders the per-seed metric
// distributions, and writes the seed-merged per-core attribution table to
// path. The merge is in seed order — byte-identical for any -workers value.
func writeProfileSweep(out io.Writer, path string, seed uint64, seeds, workers int, quick bool) error {
	cfg := experiment.DefaultDetectionConfig()
	cfg.Seed = seed
	if quick {
		cfg.FullScans = 2
	}
	sw, merged, err := experiment.RunDetectionProfileSweep(context.Background(), cfg, seeds, workers)
	if err != nil {
		return err
	}
	section(out, fmt.Sprintf("Profiled detection sweep — span attribution merged over %d seed(s)", seeds))
	fmt.Fprint(out, sw.Render())
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating profile file: %w", err)
	}
	defer f.Close()
	if _, err := io.WriteString(f, merged.Render()); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nprofile: merged attribution for %d seed(s) written to %s\n", seeds, path)
	return nil
}

func section(out io.Writer, title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
}
