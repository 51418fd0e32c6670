package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"satin/internal/experiment"
	"satin/internal/runner"
	"satin/internal/spec"
)

// SpecTrialFunc runs one instantiated scenario spec and reduces it to sweep
// metrics. Injected (it is satin.RunSpecTrial in the CLIs) because this
// package must not import the facade.
type SpecTrialFunc func(spec.Spec) (runner.Metrics, error)

// GroupKeyFunc classifies one scenario spec for grouping: cells whose keys
// match (with ok true) share boot work and may be executed as one group —
// a checkpointable prefix they fork from, or their seed's kernel boot. ok
// false marks a spec that runs alone through the plain spec trial. Injected
// (satin.CheckpointGroupKey in the CLIs) because this package must not
// import the facade.
type GroupKeyFunc func(spec.Spec) (string, bool)

// GroupResult is one member's outcome from a group trial, mirroring one
// SpecTrialFunc return. Forked reports that the member resumed from a
// snapshot of the group's shared prefix instead of running from its boot;
// it feeds CellEvent.Forked and nothing in the result file.
type GroupResult struct {
	Metrics runner.Metrics
	Err     error
	Forked  bool
}

// GroupTrialFunc executes a set of instantiated scenario specs that share a
// group key — typically by running a shared prefix once, snapshotting it,
// and forking one continuation per member, or by booting the members' seed
// once — and returns one result per member, in order. The contract is
// equivalence: metrics and failures must be exactly what running the spec
// trial per member would produce (the campaign result file is
// byte-identical either way once finalized). A group trial that panics is
// discarded and its members rerun alone through the spec trial, so a panic
// fails only the members whose own trial panics. Injected
// (satin.RunCheckpointGroup in the CLIs).
type GroupTrialFunc func(ctx context.Context, members []spec.Spec) []GroupResult

// RunOptions configures one campaign execution.
type RunOptions struct {
	// Workers bounds the worker pool (0 or negative = GOMAXPROCS).
	Workers int
	// MaxCells, when positive, stops the run after that many newly
	// completed cells — checkpointed, not finalized — which is how the
	// smoke targets simulate a kill deterministically.
	MaxCells int
	// Only, when non-nil, restricts this session to the listed cell
	// indices — one shard of the campaign. The result file still spans the
	// whole campaign's index space (its header is the full canonical
	// campaign), but a shard session never finalizes: Merge combines the
	// per-shard files into the finalized form. An index outside the
	// expansion is an error. A nil slice means every cell; an empty
	// non-nil slice is a valid (empty) shard.
	Only []int
	// SpecTrial executes scenario cells; required unless the campaign
	// names a registry experiment.
	SpecTrial SpecTrialFunc
	// GroupKey and GroupTrial, when both non-nil, enable grouping: pending
	// scenario cells whose group keys match are executed as one unit
	// through GroupTrial instead of cell-by-cell through SpecTrial. A group
	// runs on one worker. Grouping is disabled under MaxCells (a truncated
	// session must complete exactly the first pending cells, not a group's
	// worth); the finalized result file is byte-identical with grouping on
	// or off.
	GroupKey   GroupKeyFunc
	GroupTrial GroupTrialFunc
	// CellDone, when non-nil, is called once per cell this session
	// checkpoints, right after its record is appended, in completion order.
	// Calls are serialized under the executor's own lock (never the append
	// lock, so a slow observer delays no other cell's checkpoint), and
	// CellEvent.Done rises by one per call. A cell cancelled with the
	// context is not reported. Wall-clock side channel only: nothing it is
	// given or does reaches the result bytes.
	CellDone func(CellEvent)
}

// CellEvent reports one newly checkpointed cell to RunOptions.CellDone.
type CellEvent struct {
	Cell   Cell
	Result CellResult
	// Done counts the cells reported so far in this session, this one
	// included; Total is the number of cells the session set out to run.
	Done, Total int
	// Wall is the cell's wall-clock cost. A cell run inside a multi-cell
	// group is charged the group's trial time split evenly across members.
	Wall time.Duration
	// Forked is the member's GroupResult.Forked.
	Forked bool
}

// Detail renders the cell's outcome as "<label> ok" or
// "<label> FAILED: <err>", the text of progress lines and of the
// coordinator's event stream.
func (e CellEvent) Detail() string {
	if e.Result.Failed() {
		return e.Cell.Label() + " FAILED: " + e.Result.Err
	}
	return e.Cell.Label() + " ok"
}

// RunResult summarizes one campaign execution.
type RunResult struct {
	// Cells is the full expansion, in index order.
	Cells []Cell
	// Results holds every checkpointed cell (this session's and resumed
	// ones), in index order.
	Results []CellResult
	// NewlyDone counts cells completed by this session.
	NewlyDone int
	// Finalized reports whether every cell is done and the result file was
	// rewritten into its canonical final form.
	Finalized bool
}

// Run executes the campaign against its result file at resultPath: expand
// the cells, skip the ones already checkpointed, run the remainder on the
// worker pool (appending each completion to the checkpoint immediately),
// and — once every cell is present — finalize the file into its canonical
// byte-identical form.
func Run(ctx context.Context, c Spec, resultPath string, opt RunOptions) (RunResult, error) {
	canon, err := Canonicalize(c)
	if err != nil {
		return RunResult{}, err
	}
	specBytes, err := Marshal(canon)
	if err != nil {
		return RunResult{}, err
	}
	cells, err := Cells(canon)
	if err != nil {
		return RunResult{}, err
	}
	if canon.Experiment == "" && opt.SpecTrial == nil {
		return RunResult{}, fmt.Errorf("campaign: scenario campaigns need a spec trial function")
	}

	rf, err := CreateOrResume(resultPath, specBytes)
	if err != nil {
		return RunResult{}, err
	}
	defer rf.Close()

	var only map[int]bool
	if opt.Only != nil {
		only = make(map[int]bool, len(opt.Only))
		for _, idx := range opt.Only {
			if idx < 0 || idx >= len(cells) {
				return RunResult{}, fmt.Errorf("campaign: shard cell index %d out of range (campaign has %d cells)", idx, len(cells))
			}
			only[idx] = true
		}
	}

	var pending []Cell
	for _, cell := range cells {
		if only != nil && !only[cell.Index] {
			continue
		}
		if _, ok := rf.Done()[cell.Index]; !ok {
			pending = append(pending, cell)
		}
	}
	toRun := pending
	if opt.MaxCells > 0 && opt.MaxCells < len(toRun) {
		toRun = toRun[:opt.MaxCells]
	}

	result := RunResult{Cells: cells}
	if len(toRun) > 0 {
		units := groupUnits(toRun, opt)
		var mu sync.Mutex
		var checkpointErr error
		// hookMu serializes CellDone calls and guards done. It is taken
		// after mu is released, so observers never hold up an append.
		var hookMu sync.Mutex
		done := 0
		report := func(e CellEvent) {
			hookMu.Lock()
			defer hookMu.Unlock()
			done++
			e.Done, e.Total = done, len(toRun)
			opt.CellDone(e)
		}
		_, runErr := runner.Run(ctx, len(units), opt.Workers,
			func(ctx context.Context, ui int) (struct{}, error) {
				unit := units[ui]
				unitStart := time.Now()
				results, err := runUnit(ctx, unit, opt)
				if err != nil {
					return struct{}{}, err
				}
				cellWall := time.Since(unitStart) / time.Duration(len(unit))
				for i, r := range results {
					cell := unit[i]
					if r.Err != nil && isCancellation(ctx, r.Err) {
						// The trial died with the context, not on its own
						// merits: leave the cell unchecked so resume reruns
						// it.
						continue
					}
					res := CellResult{Index: cell.Index, Seed: cell.Seed, Metrics: r.Metrics}
					if r.Err != nil {
						res.Err = r.Err.Error()
						res.Metrics = nil
					}
					mu.Lock()
					appendErr := rf.Append(res)
					if appendErr != nil && checkpointErr == nil {
						checkpointErr = appendErr
					}
					result.NewlyDone++
					mu.Unlock()
					if appendErr != nil {
						return struct{}{}, appendErr
					}
					if opt.CellDone != nil {
						report(CellEvent{Cell: cell, Result: res, Wall: cellWall, Forked: r.Forked})
					}
				}
				return struct{}{}, nil
			})
		if checkpointErr != nil {
			return RunResult{}, checkpointErr
		}
		if runErr != nil {
			return RunResult{}, fmt.Errorf("campaign: %w", runErr)
		}
	}

	// A shard session never finalizes even if its file happens to hold
	// every cell: finalization is the whole-campaign act (Merge, or a
	// full-range session).
	if opt.Only == nil && len(rf.Done()) == len(cells) {
		if err := rf.Finalize(len(cells)); err != nil {
			return RunResult{}, err
		}
		result.Finalized = true
	}
	for _, cell := range cells {
		if res, ok := rf.Done()[cell.Index]; ok {
			result.Results = append(result.Results, res)
		}
	}
	return result, nil
}

// groupUnits partitions the cells this session will run into execution
// units: with grouping enabled, the groups Partition forms; otherwise every
// cell alone. Unit boundaries only shape scheduling and the order of
// result-file appends; the finalized file sorts by index and is invariant
// to them.
func groupUnits(cells []Cell, opt RunOptions) [][]Cell {
	if opt.GroupTrial == nil || opt.MaxCells > 0 {
		return Partition(cells, nil)
	}
	return Partition(cells, opt.GroupKey)
}

// Partition is the one grouping rule, shared by the executor and the shard
// planner: cells whose scenario keys match form one group, in the order
// given; everything else — a cell without a key, an experiment cell, a key
// no other cell shares — stands alone. Each group is emitted at its first
// member, so groups come in the order of their first cells. A nil key
// leaves every cell alone.
func Partition(cells []Cell, key GroupKeyFunc) [][]Cell {
	grouped := map[string][]Cell{}
	keyOf := make([]string, len(cells))
	if key != nil {
		for i, c := range cells {
			if c.Scenario == nil {
				continue
			}
			if k, ok := key(*c.Scenario); ok {
				keyOf[i] = k
				grouped[k] = append(grouped[k], c)
			}
		}
	}
	var groups [][]Cell
	emitted := map[string]bool{}
	for i, c := range cells {
		k := keyOf[i]
		if k == "" || len(grouped[k]) < 2 {
			groups = append(groups, []Cell{c})
			continue
		}
		if !emitted[k] {
			emitted[k] = true
			groups = append(groups, grouped[k])
		}
	}
	return groups
}

// runUnit executes one unit and returns one result per member. A group
// trial that panics says nothing about which member is at fault, so its
// members rerun alone, each failing only if its own trial panics.
func runUnit(ctx context.Context, unit []Cell, opt RunOptions) ([]GroupResult, error) {
	if len(unit) == 1 {
		return []GroupResult{runAlone(ctx, unit[0], opt.SpecTrial)}, nil
	}
	results, panicked := runGroup(ctx, unit, opt.GroupTrial)
	if panicked {
		results = make([]GroupResult, len(unit))
		for i, cell := range unit {
			results[i] = runAlone(ctx, cell, opt.SpecTrial)
		}
		return results, nil
	}
	if len(results) != len(unit) {
		return nil, fmt.Errorf("campaign: group trial returned %d results for %d members", len(results), len(unit))
	}
	return results, nil
}

// runGroup runs a multi-cell unit through the group trial, reporting a
// panic instead of propagating it. The panic value is dropped: rerunning
// the members alone decides which of them fail.
func runGroup(ctx context.Context, unit []Cell, trial GroupTrialFunc) (results []GroupResult, panicked bool) {
	defer func() {
		if recover() != nil {
			results, panicked = nil, true
		}
	}()
	members := make([]spec.Spec, len(unit))
	for i, cell := range unit {
		members[i] = *cell.Scenario
	}
	return trial(ctx, members), false
}

// runAlone runs one cell. A panic in its trial fails the cell with a
// *runner.PanicError — the failure runner.Run reports for a panicking trial —
// so the cell is checkpointed like any other failure instead of vanishing.
func runAlone(ctx context.Context, cell Cell, specTrial SpecTrialFunc) (res GroupResult) {
	defer func() {
		if r := recover(); r != nil {
			res = GroupResult{Err: &runner.PanicError{Value: r, Stack: debug.Stack()}}
		}
	}()
	res.Metrics, res.Err = runCell(ctx, cell, specTrial)
	return res
}

// runCell dispatches one cell: registry experiments through their trial
// form, scenario cells through the injected spec trial.
func runCell(ctx context.Context, cell Cell, specTrial SpecTrialFunc) (runner.Metrics, error) {
	if cell.Experiment != "" {
		def, ok := experiment.Lookup(cell.Experiment)
		if !ok || def.Trial == nil {
			return nil, fmt.Errorf("campaign: experiment %q has no trial form", cell.Experiment)
		}
		return def.Trial(ctx, cell.Seed)
	}
	return specTrial(*cell.Scenario)
}

// isCancellation reports whether the trial failed because the run was being
// torn down rather than on the cell's own merits.
func isCancellation(ctx context.Context, err error) bool {
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// MergeSweeps folds checkpointed cell results back into per-combination
// sweeps — the same aggregate form live multi-seed sweeps produce, built in
// cell-index order so the rendering is byte-identical no matter how the
// cells were computed.
func MergeSweeps(cells []Cell, results []CellResult) []*runner.Sweep {
	byIndex := map[int]CellResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}
	var sweeps []*runner.Sweep
	var cur *runner.Sweep
	curCombo := -1
	for _, cell := range cells {
		res, ok := byIndex[cell.Index]
		if !ok {
			continue
		}
		if cell.Combo != curCombo {
			cur = runner.NewSweep(cell.ComboLabel)
			sweeps = append(sweeps, cur)
			curCombo = cell.Combo
		}
		var err error
		if res.Failed() {
			err = errors.New(res.Err)
		}
		cur.Add(res.Seed, res.Metrics, err)
	}
	return sweeps
}
