package experiment

import (
	"fmt"
	"time"

	"satin/internal/mem"
	"satin/internal/stats"
	"satin/internal/workload"
)

// Fig7Config tunes the overhead study.
type Fig7Config struct {
	// Specs are the benchmark programs; nil means the full UnixBench
	// suite.
	Specs []workload.Spec
	// Tasks are the concurrency levels; nil means {1, 6} as in the paper.
	Tasks []int
	// Window is each run's measurement window.
	Window time.Duration
	Seed   uint64
}

// fig7WakePeriod is how often each core's secure timer wakes for
// introspection in the overhead study (paper's overhead experiment: the
// self-activation module wakes the secure world "across all cores").
const fig7WakePeriod = 8 * time.Second

// DefaultFig7Config returns the paper-scale configuration.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Tasks: []int{1, 6},
		// 240 s keeps the 1-task interruption count (Poisson, mean ≈30)
		// tight enough that per-program bars are stable.
		Window: 240 * time.Second,
		Seed:   1,
	}
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.Specs == nil {
		c.Specs = workload.UnixBench()
	}
	if c.Tasks == nil {
		c.Tasks = []int{1, 6}
	}
	if c.Window == 0 {
		c.Window = 240 * time.Second
	}
	return c
}

// Fig7Row is one benchmark's degradation at one concurrency level.
type Fig7Row struct {
	Name  string
	Tasks int
	// BaselineScore and SATINScore are total iterations with SATIN off/on.
	BaselineScore int64
	SATINScore    int64
	// Degradation is 1 - SATINScore/BaselineScore.
	Degradation float64
	// Pauses is how many secure interruptions the tasks absorbed.
	Pauses int
}

// Fig7Result reproduces Figure 7 ("SATIN Overhead").
type Fig7Result struct {
	Rows []Fig7Row
}

// Average returns the mean degradation at a concurrency level (paper:
// 0.711% for 1-task, 0.848% for 6-task).
func (r Fig7Result) Average(tasks int) float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		if row.Tasks == tasks {
			sum += row.Degradation
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Row returns the entry for (name, tasks).
func (r Fig7Result) Row(name string, tasks int) (Fig7Row, error) {
	for _, row := range r.Rows {
		if row.Name == name && row.Tasks == tasks {
			return row, nil
		}
	}
	return Fig7Row{}, fmt.Errorf("experiment: no Fig7 row %s/%d-task", name, tasks)
}

// Render prints the two series of Figure 7.
func (r Fig7Result) Render() string {
	tasks := []int{}
	seen := map[int]bool{}
	for _, row := range r.Rows {
		if !seen[row.Tasks] {
			seen[row.Tasks] = true
			tasks = append(tasks, row.Tasks)
		}
	}
	header := []string{"Benchmark"}
	for _, tk := range tasks {
		header = append(header, fmt.Sprintf("%d-task degradation", tk))
	}
	tbl := stats.NewTable(header...)
	names := []string{}
	seenName := map[string]bool{}
	for _, row := range r.Rows {
		if !seenName[row.Name] {
			seenName[row.Name] = true
			names = append(names, row.Name)
		}
	}
	for _, name := range names {
		cells := []string{name}
		for _, tk := range tasks {
			row, err := r.Row(name, tk)
			if err != nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, stats.Pct(row.Degradation))
		}
		tbl.AddRow(cells...)
	}
	avg := []string{"AVERAGE"}
	for _, tk := range tasks {
		avg = append(avg, stats.Pct(r.Average(tk)))
	}
	tbl.AddRow(avg...)
	return tbl.String()
}

// Chart renders one concurrency level's bars as an ASCII chart.
func (r Fig7Result) Chart(tasks, width int) string {
	var labels []string
	var values []float64
	for _, row := range r.Rows {
		if row.Tasks == tasks {
			labels = append(labels, row.Name)
			values = append(values, row.Degradation)
		}
	}
	return stats.BarChart(labels, values, width, stats.Pct)
}

// RunFig7 measures each benchmark's throughput with SATIN off and on and
// reports the normalized degradation. Every rig runs on cfg.Seed, so the
// kernel boots once and each rig builds its image from that boot state.
func RunFig7(cfg Fig7Config) (Fig7Result, error) {
	cfg = cfg.withDefaults()
	boot, err := bootJuno(cfg.Seed)
	if err != nil {
		return Fig7Result{}, err
	}
	var result Fig7Result
	for _, spec := range cfg.Specs {
		for _, tasks := range cfg.Tasks {
			base, _, err := fig7Run(cfg, boot, spec, tasks, false)
			if err != nil {
				return Fig7Result{}, err
			}
			withSATIN, pauses, err := fig7Run(cfg, boot, spec, tasks, true)
			if err != nil {
				return Fig7Result{}, err
			}
			row := Fig7Row{
				Name:          spec.Name,
				Tasks:         tasks,
				BaselineScore: base,
				SATINScore:    withSATIN,
				Pauses:        pauses,
			}
			if base > 0 {
				row.Degradation = 1 - float64(withSATIN)/float64(base)
			}
			result.Rows = append(result.Rows, row)
		}
	}
	return result, nil
}

// fig7Run measures one benchmark configuration on a rig built from boot.
func fig7Run(cfg Fig7Config, boot *mem.BootState, spec workload.Spec, tasks int, withSATIN bool) (score int64, pauses int, err error) {
	rig, err := NewRigFrom(cfg.Seed, boot)
	if err != nil {
		return 0, 0, err
	}
	bench, err := workload.Start(rig.OS, spec, tasks)
	if err != nil {
		return 0, 0, err
	}
	if withSATIN {
		if err := startFig7SATIN(rig, cfg.Seed); err != nil {
			return 0, 0, err
		}
	}
	rig.Engine.RunFor(cfg.Window)
	return bench.Iterations(), bench.Pauses(), nil
}
