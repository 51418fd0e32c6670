package campaign_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"satin/internal/campaign"
	"satin/internal/runner"
	"satin/internal/spec"
)

// fakeTrial is a deterministic stand-in for the real simulation trial: a
// pure function of the instantiated spec, fast enough to run the 24-cell
// grid hundreds of times.
func fakeTrial(s spec.Spec) (runner.Metrics, error) {
	m := runner.Metrics{}.Add("seed", float64(s.Seed))
	if s.Defense.SATIN != nil {
		m = m.Add("rounds", float64(s.Defense.SATIN.MaxRounds))
	}
	evader := 0.0
	if s.Evader.Kind == spec.EvaderFast {
		evader = 1
	}
	m = m.Add("evader", evader)
	if s.Faults != "" {
		m = m.Add("faulted", 1)
	}
	return m, nil
}

func runToFile(t *testing.T, path string, opt campaign.RunOptions) campaign.RunResult {
	t.Helper()
	if opt.SpecTrial == nil {
		opt.SpecTrial = fakeTrial
	}
	res, err := campaign.Run(context.Background(), parseGrid(t), path, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return b
}

// TestWorkerCountInvariance: the finalized result file is byte-identical
// for 1 worker and 8 workers.
func TestWorkerCountInvariance(t *testing.T) {
	dir := t.TempDir()
	serial := filepath.Join(dir, "serial.result")
	parallel := filepath.Join(dir, "parallel.result")
	resSerial := runToFile(t, serial, campaign.RunOptions{Workers: 1})
	resParallel := runToFile(t, parallel, campaign.RunOptions{Workers: 8})
	if !resSerial.Finalized || !resParallel.Finalized {
		t.Fatalf("runs not finalized: serial %v, parallel %v", resSerial.Finalized, resParallel.Finalized)
	}
	if !bytes.Equal(fileBytes(t, serial), fileBytes(t, parallel)) {
		t.Fatalf("result files differ between 1 and 8 workers")
	}
}

// TestKillResumeByteIdentical: a campaign stopped part-way (MaxCells, the
// deterministic kill) and resumed — twice, with different worker counts —
// finalizes byte-identical to an uninterrupted single-worker run.
func TestKillResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	uninterrupted := filepath.Join(dir, "full.result")
	runToFile(t, uninterrupted, campaign.RunOptions{Workers: 1})

	resumed := filepath.Join(dir, "resumed.result")
	first := runToFile(t, resumed, campaign.RunOptions{Workers: 8, MaxCells: 7})
	if first.Finalized || first.NewlyDone != 7 {
		t.Fatalf("first leg: finalized %v, newly done %d (want 7)", first.Finalized, first.NewlyDone)
	}
	second := runToFile(t, resumed, campaign.RunOptions{Workers: 3, MaxCells: 9})
	if second.Finalized || second.NewlyDone != 9 {
		t.Fatalf("second leg: finalized %v, newly done %d (want 9)", second.Finalized, second.NewlyDone)
	}
	last := runToFile(t, resumed, campaign.RunOptions{Workers: 5})
	if !last.Finalized {
		t.Fatalf("final leg did not finalize")
	}
	if last.NewlyDone != 24-7-9 {
		t.Fatalf("final leg reran cells: newly done %d, want %d", last.NewlyDone, 24-7-9)
	}
	if !bytes.Equal(fileBytes(t, uninterrupted), fileBytes(t, resumed)) {
		t.Fatalf("resumed result differs from uninterrupted run")
	}
}

// TestCorruptTailResume: a record torn mid-write by a hard kill is dropped
// on resume, its cell reruns, and the final file is still byte-identical.
func TestCorruptTailResume(t *testing.T) {
	dir := t.TempDir()
	uninterrupted := filepath.Join(dir, "full.result")
	runToFile(t, uninterrupted, campaign.RunOptions{Workers: 1})

	torn := filepath.Join(dir, "torn.result")
	runToFile(t, torn, campaign.RunOptions{Workers: 2, MaxCells: 6})
	data := fileBytes(t, torn)
	if err := os.WriteFile(torn, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}
	res := runToFile(t, torn, campaign.RunOptions{Workers: 4})
	if !res.Finalized {
		t.Fatalf("did not finalize after torn-tail resume")
	}
	if res.NewlyDone != 24-5 {
		t.Fatalf("newly done %d after tearing one record off 6, want %d", res.NewlyDone, 24-5)
	}
	if !bytes.Equal(fileBytes(t, uninterrupted), fileBytes(t, torn)) {
		t.Fatalf("torn-tail resume differs from uninterrupted run")
	}
}

// TestResultFileIdentity: a result file never absorbs cells from a
// different campaign.
func TestResultFileIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.result")
	runToFile(t, path, campaign.RunOptions{Workers: 2, MaxCells: 3})

	other := parseGrid(t)
	other.Seeds.Count = 2
	_, err := campaign.Run(context.Background(), other, path, campaign.RunOptions{SpecTrial: fakeTrial})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("error = %v, want a different-campaign rejection", err)
	}
}

// TestFailedCellsCheckpointAndRender: deterministic trial failures are
// results — checkpointed, not rerun on resume, rendered as sweep failures.
// A panic is such a failure too, and a panicking group trial fails only the
// members whose own trial panics.
func TestFailedCellsCheckpointAndRender(t *testing.T) {
	failsAt := func(s spec.Spec) bool { return s.Seed == 2 && s.Evader.Kind == spec.EvaderNone }
	failing := func(s spec.Spec) (runner.Metrics, error) {
		if failsAt(s) {
			return nil, fmt.Errorf("synthetic failure")
		}
		return fakeTrial(s)
	}
	panicking := func(s spec.Spec) (runner.Metrics, error) {
		if failsAt(s) {
			panic("synthetic panic")
		}
		return fakeTrial(s)
	}
	groupPanicking := func(_ context.Context, members []spec.Spec) []campaign.GroupResult {
		out := make([]campaign.GroupResult, len(members))
		for i, m := range members {
			metrics, err := panicking(m)
			out[i] = campaign.GroupResult{Metrics: metrics, Err: err}
		}
		return out
	}
	cases := []struct {
		name   string
		opt    campaign.RunOptions
		failed int
		err    string
	}{
		// evader=none × 2 round counts × 2 fault plans at seed 2.
		{"error", campaign.RunOptions{Workers: 1, SpecTrial: failing}, 4, "synthetic failure"},
		{"panic", campaign.RunOptions{Workers: 2, SpecTrial: panicking}, 4, "trial panicked: synthetic panic"},
		// Grouped by seed, the panicking group's members rerun alone, so
		// the panic fails the same 4 cells as ungrouped.
		{"group panic", campaign.RunOptions{Workers: 2, SpecTrial: panicking, GroupKey: bySeed, GroupTrial: groupPanicking}, 4, "trial panicked: synthetic panic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f.result")
			res := runToFile(t, path, tc.opt)
			if !res.Finalized {
				t.Fatalf("failures must not block finalization: %d/%d cells checkpointed", len(res.Results), len(res.Cells))
			}
			failures := 0
			for _, r := range res.Results {
				if !r.Failed() {
					continue
				}
				failures++
				if r.Seed != 2 || !strings.HasPrefix(r.Err, tc.err) {
					t.Errorf("cell %d (seed %d) failed with %q, want %q at seed 2", r.Index, r.Seed, r.Err, tc.err)
				}
			}
			if failures != tc.failed {
				t.Fatalf("got %d failed cells, want %d", failures, tc.failed)
			}
			sweeps := campaign.MergeSweeps(res.Cells, res.Results)
			if len(sweeps) != 8 {
				t.Fatalf("got %d sweeps, want 8 combos", len(sweeps))
			}
			rendered := 0
			for _, sw := range sweeps {
				rendered += len(sw.Failures)
			}
			if rendered != failures {
				t.Fatalf("sweeps render %d failures, want %d", rendered, failures)
			}
			// Resume reruns nothing: failures are checkpointed results.
			if again := runToFile(t, path, tc.opt); again.NewlyDone != 0 {
				t.Fatalf("resume after failures reran %d cells", again.NewlyDone)
			}
		})
	}
}

// bySeed groups scenario cells by seed; with perMember it runs every cell
// of a seed as one unit.
func bySeed(s spec.Spec) (string, bool) { return fmt.Sprint(s.Seed), true }

// perMember is a group trial that runs each member through fakeTrial.
func perMember(_ context.Context, members []spec.Spec) []campaign.GroupResult {
	out := make([]campaign.GroupResult, len(members))
	for i, m := range members {
		metrics, err := fakeTrial(m)
		out[i] = campaign.GroupResult{Metrics: metrics, Err: err}
	}
	return out
}

// checkCellEvents requires one CellDone event per cell from..to-1: Done
// counts 1..N in call order, Total is N, and each event carries exactly the
// result checkpointed for its cell.
func checkCellEvents(t *testing.T, events []campaign.CellEvent, res campaign.RunResult, from, to int) {
	t.Helper()
	n := to - from
	if len(events) != n {
		t.Fatalf("got %d cell events, want %d", len(events), n)
	}
	checkpointed := map[int]campaign.CellResult{}
	for _, r := range res.Results {
		checkpointed[r.Index] = r
	}
	seen := map[int]bool{}
	for i, e := range events {
		if e.Done != i+1 || e.Total != n {
			t.Fatalf("event %d reports %d/%d, want %d/%d", i, e.Done, e.Total, i+1, n)
		}
		if e.Result.Index != e.Cell.Index {
			t.Fatalf("event for cell %d carries the result of cell %d", e.Cell.Index, e.Result.Index)
		}
		if seen[e.Cell.Index] {
			t.Fatalf("cell %d reported twice", e.Cell.Index)
		}
		seen[e.Cell.Index] = true
		if !reflect.DeepEqual(e.Result, checkpointed[e.Cell.Index]) {
			t.Fatalf("cell %d: event result %+v, checkpointed %+v", e.Cell.Index, e.Result, checkpointed[e.Cell.Index])
		}
	}
	for idx := from; idx < to; idx++ {
		if !seen[idx] {
			t.Fatalf("cell %d was not reported", idx)
		}
	}
}

// TestCellDoneReportsEachCellOnce: a parallel session, cell by cell or in
// groups, reports every checkpointed cell exactly once.
func TestCellDoneReportsEachCellOnce(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		t.Run(fmt.Sprintf("grouped=%v", grouped), func(t *testing.T) {
			var events []campaign.CellEvent
			opt := campaign.RunOptions{Workers: 3, CellDone: func(e campaign.CellEvent) { events = append(events, e) }}
			if grouped {
				opt.GroupKey, opt.GroupTrial = bySeed, perMember
			}
			res := runToFile(t, filepath.Join(t.TempDir(), "hook.result"), opt)
			checkCellEvents(t, events, res, 0, len(res.Cells))
		})
	}
}

// TestCellDoneReportsEachMembersOwnFailure: in a group whose second member
// fails, only that member's event reports the failure.
func TestCellDoneReportsEachMembersOwnFailure(t *testing.T) {
	secondFails := func(ctx context.Context, members []spec.Spec) []campaign.GroupResult {
		out := perMember(ctx, members)
		out[1] = campaign.GroupResult{Err: fmt.Errorf("second member failed")}
		return out
	}
	var events []campaign.CellEvent
	res := runToFile(t, filepath.Join(t.TempDir(), "group.result"), campaign.RunOptions{
		Workers: 2, GroupKey: bySeed, GroupTrial: secondFails,
		CellDone: func(e campaign.CellEvent) { events = append(events, e) },
	})
	checkCellEvents(t, events, res, 0, len(res.Cells))
	// A group lists its members in expansion order.
	perSeed := map[uint64]int{}
	wantFailed := map[int]bool{}
	for _, c := range res.Cells {
		perSeed[c.Seed]++
		wantFailed[c.Index] = perSeed[c.Seed] == 2
	}
	for _, e := range events {
		if e.Result.Failed() != wantFailed[e.Cell.Index] {
			t.Errorf("cell %d: failed %v, want %v (%s)", e.Cell.Index, e.Result.Failed(), wantFailed[e.Cell.Index], e.Detail())
		}
	}
}

// TestCellEventDetail pins the text satin-serve's event stream and -watch
// print for a cell.
func TestCellEventDetail(t *testing.T) {
	e := campaign.CellEvent{
		Cell:   campaign.Cell{Index: 5, ComboLabel: "evader.kind=fast faults=-", Seed: 2},
		Result: campaign.CellResult{Index: 5, Seed: 2},
	}
	if got, want := e.Detail(), "evader.kind=fast faults=- seed=2 ok"; got != want {
		t.Errorf("Detail() = %q, want %q", got, want)
	}
	e.Result.Err = "trial panicked: boom"
	if got, want := e.Detail(), "evader.kind=fast faults=- seed=2 FAILED: trial panicked: boom"; got != want {
		t.Errorf("Detail() = %q, want %q", got, want)
	}
}

// TestCellDoneAcrossKillAndResume: a MaxCells session reports exactly its
// MaxCells cells, and the resumed session reports the rest.
func TestCellDoneAcrossKillAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kill.result")
	var killed, resumed []campaign.CellEvent
	first := runToFile(t, path, campaign.RunOptions{
		Workers: 3, MaxCells: 5,
		CellDone: func(e campaign.CellEvent) { killed = append(killed, e) },
	})
	checkCellEvents(t, killed, first, 0, 5)
	last := runToFile(t, path, campaign.RunOptions{
		Workers:  3,
		CellDone: func(e campaign.CellEvent) { resumed = append(resumed, e) },
	})
	checkCellEvents(t, resumed, last, 5, len(last.Cells))
}

// TestExperimentCampaignRuns: registry-experiment campaigns dispatch
// through the experiment's trial form without a spec trial injected.
func TestExperimentCampaignRuns(t *testing.T) {
	c, err := campaign.Parse([]byte(`{"version": 1, "experiment": "evasion", "seeds": {"base": 1, "count": 1}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	path := filepath.Join(t.TempDir(), "exp.result")
	res, err := campaign.Run(context.Background(), c, path, campaign.RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Finalized || len(res.Results) != 1 {
		t.Fatalf("finalized %v, %d results", res.Finalized, len(res.Results))
	}
	if res.Results[0].Failed() {
		t.Fatalf("evasion cell failed: %s", res.Results[0].Err)
	}
	if len(res.Results[0].Metrics) == 0 {
		t.Fatalf("evasion cell produced no metrics")
	}
}

// TestReadResults: the standalone reader returns the embedded spec and the
// cells in index order.
func TestReadResults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "read.result")
	res := runToFile(t, path, campaign.RunOptions{Workers: 8})
	specBytes, results, finalized, err := campaign.ReadResults(path)
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	if !finalized {
		t.Fatalf("reader missed the footer")
	}
	canon, err := campaign.Canonicalize(parseGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(specBytes, want) {
		t.Fatalf("embedded spec differs from the canonical campaign")
	}
	if len(results) != len(res.Cells) {
		t.Fatalf("got %d results, want %d", len(results), len(res.Cells))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d has index %d (want index order)", i, r.Index)
		}
	}
}
