package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"satin/internal/runner"
)

// The experiment registry: every runnable experiment registered under its
// CLI name, with a uniform dispatch surface. `benchtables -only=<name>`,
// the per-experiment shorthand flags, and the campaign cell executor all
// route through this table instead of hand-rolled switch statements — one
// place to add an experiment, one contract to satisfy.

// RunConfig parameterizes the single-seed (paper-layout) form of a
// registered experiment.
type RunConfig struct {
	// Seed is the root seed of the deterministic universe.
	Seed uint64
	// Quick shrinks long-running experiments (Fig 7's window, the
	// sensitivity grid) for smoke runs.
	Quick bool
	// Seeds and Workers feed experiments that are multi-seed by
	// construction (sensitivity) even in single-seed dispatch.
	Seeds   int
	Workers int
}

// Definition is one registry entry. Run renders the paper's single-seed
// form (section header included). Trial, when non-nil, runs one seed and
// flattens it to sweep metrics — the form campaign cells dispatch through,
// and the experiment's only multi-seed form: `benchtables -seeds N` runs it
// as a one-combination campaign and renders the sweep as SweepName under
// the section title SweepTitle.
type Definition struct {
	Name       string
	Run        func(out io.Writer, rc RunConfig) error
	Trial      func(ctx context.Context, seed uint64) (runner.Metrics, error)
	SweepName  string
	SweepTitle string
}

// Sweepable reports whether the experiment has a multi-seed form.
func (d Definition) Sweepable() bool { return d.Trial != nil }

// Registry returns every registered experiment in presentation order — the
// order `benchtables` (no flags) runs them in.
func Registry() []Definition {
	return registry
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Definition, bool) {
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Definition{}, false
}

// Names lists the registered experiment names in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.Name
	}
	return names
}

// section prints a benchtables section header.
func section(out io.Writer, title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
}

var registry = []Definition{
	{Name: "table1", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunTable1(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "Table I — Secure World Introspection Time (paper: A53 hash avg 1.07e-8 s, A57 hash avg 6.71e-9 s)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "switch", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunSwitch(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "Ts_switch (§IV-B1; paper: 2.38e-6 s – 3.60e-6 s, similar across core types)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "recover", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunRecover(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "Tns_recover (§IV-B2; paper: A53 avg 5.80e-3 s, A57 avg 4.96e-3 s)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "table2", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunTable2(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "Table II — Probing Threshold on Multi-Core (paper: avg 2.61e-4 s @8s ... 6.61e-4 s @300s)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "table2thread", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunTable2ThreadLevel(rc.Seed, 8*time.Second, 3)
		if err != nil {
			return err
		}
		section(out, "Table II cross-validation — thread-level prober vs the calibrated model (8 s rounds)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "fig3", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunFig3(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "Figure 3 — Race Condition Between Two Worlds (measured timelines)")
		fmt.Fprint(out, RenderFig3(res))
		return nil
	}},
	{Name: "fig4", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunTable2(rc.Seed + 100)
		if err != nil {
			return err
		}
		section(out, "Figure 4 — KProber Probing Threshold Stability (box plots)")
		fmt.Fprint(out, res.RenderFig4())
		fmt.Fprintln(out)
		fmt.Fprint(out, res.ChartFig4(64))
		return nil
	}},
	{Name: "singlecore", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunSingleCore(rc.Seed, 8*time.Second)
		if err != nil {
			return err
		}
		section(out, "Single-core probing (§IV-B2; paper: ≈1/4 of the all-core threshold)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "race", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunRace(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "Race-condition analysis (§IV-C; paper: S ≤ 1,218,351 B, ≈90% unprotected)")
		fmt.Fprint(out, res.Render())
		return nil
	}, Trial: TrialRace,
		SweepName:  "race-condition analysis (§IV-C)",
		SweepTitle: "Race-condition analysis, multi-seed (§IV-C; paper: ≈90% unprotected)"},
	{Name: "evasion", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunEvasion(rc.Seed, 10, 8*time.Second)
		if err != nil {
			return err
		}
		section(out, "TZ-Evader vs baseline introspection (§IV premise; expected: 100% evasion)")
		fmt.Fprint(out, res.Render())
		return nil
	}, Trial: TrialEvasion,
		SweepName:  "TZ-Evader vs baseline (§IV)",
		SweepTitle: "TZ-Evader vs baseline, multi-seed (§IV premise; expected: 100% evasion)"},
	{Name: "detection", Run: func(out io.Writer, rc RunConfig) error {
		cfg := DefaultDetectionConfig()
		cfg.Seed = rc.Seed
		res, err := RunDetection(cfg)
		if err != nil {
			return err
		}
		section(out, "SATIN detection experiment (§VI-B1)")
		fmt.Fprint(out, res.Render())
		return nil
	}, Trial: TrialDetection,
		SweepName:  "SATIN detection (§VI-B1)",
		SweepTitle: "SATIN detection experiment, multi-seed (§VI-B1; paper: 10/10, 0 FP/FN at seed 1)"},
	{Name: "fig7", Run: func(out io.Writer, rc RunConfig) error {
		cfg := DefaultFig7Config()
		cfg.Seed = rc.Seed
		if rc.Quick {
			cfg.Window = 60 * time.Second
		}
		res, err := RunFig7(cfg)
		if err != nil {
			return err
		}
		section(out, "Figure 7 — SATIN Overhead (paper: avg 0.711% 1-task / 0.848% 6-task; spikes: file copy 256B 3.556%, context switching 3.912%)")
		fmt.Fprint(out, res.Render())
		fmt.Fprintln(out, "\n1-task degradation:")
		fmt.Fprint(out, res.Chart(1, 50))
		fmt.Fprintln(out, "6-task degradation:")
		fmt.Fprint(out, res.Chart(6, 50))
		return nil
	}},
	{Name: "ablation", Run: func(out io.Writer, rc RunConfig) error {
		cfg := DefaultAblationConfig()
		cfg.Seed = rc.Seed
		res, err := RunAblation(cfg)
		if err != nil {
			return err
		}
		section(out, "Ablation — SATIN design choices vs best-response evaders (DESIGN.md E11)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "decompose", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunDecomposition(rc.Seed, 240*time.Second)
		if err != nil {
			return err
		}
		section(out, "Overhead decomposition — structural stall vs fitted warm-state penalty (context switching)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "msweep", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunMSweep(rc.Seed, 0.5)
		if err != nil {
			return err
		}
		section(out, "Trace-size sweep — Tns_recover is the evader's bottleneck (§IV-C observation 4)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "flood", Run: func(out io.Writer, rc RunConfig) error {
		cfg := DefaultFloodConfig()
		cfg.Seed = rc.Seed
		res, err := RunFlood(cfg)
		if err != nil {
			return err
		}
		section(out, fmt.Sprintf("Interrupt-flood ablation — why SATIN requires SCR_EL3.IRQ=0 (§II-B/§V-B); %.0f SGIs/s per core", res.Rate))
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "syncbypass", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunSyncBypass(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "Layered defense — synchronous guard, AP-flip bypass, asynchronous catch (§VII-A/§VII-C)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "userprober", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunUserProber(rc.Seed)
		if err != nil {
			return err
		}
		section(out, "User-level prober (§III-B1; paper: Tns_delay < 5.97e-3 s vs 8.04e-2 s check)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "kprober1", Run: func(out io.Writer, rc RunConfig) error {
		res, err := RunKProber1Exposure(rc.Seed, 3)
		if err != nil {
			return err
		}
		section(out, "KProber-I self-exposure — the vector hijack is introspection-visible (§III-C1)")
		fmt.Fprint(out, res.Render())
		return nil
	}},
	{Name: "sensitivity", Run: func(out io.Writer, rc RunConfig) error {
		// The sensitivity chart is multi-seed by construction: its
		// magnitude × seed grid is one batch on runner.Run, so -seeds and
		// -workers apply here even without the generic sweep path.
		cfg := DefaultSensitivityConfig()
		cfg.Detection.Seed = rc.Seed
		cfg.Workers = rc.Workers
		if rc.Seeds > 1 {
			cfg.Seeds = rc.Seeds
		}
		if rc.Quick {
			cfg.Magnitudes = []float64{0, 2, 6}
			cfg.Detection.FullScans = 4
		}
		res, err := RunSensitivity(context.Background(), cfg)
		if err != nil {
			return err
		}
		section(out, fmt.Sprintf("Fault-injection sensitivity — detection probability vs perturbation magnitude (%d seeds each)", cfg.Seeds))
		fmt.Fprint(out, res.Render())
		if fb := res.FirstBreak(); fb >= 0 {
			fmt.Fprintf(out, "first magnitude breaking 10/10 detection: %g\n", fb)
		} else {
			fmt.Fprintln(out, "detection never degraded across the charted magnitudes")
		}
		return nil
	}},
}
