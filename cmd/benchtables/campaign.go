package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"satin"
	"satin/internal/campaign"
	"satin/internal/telemetry"
)

// runCampaignFile executes (or resumes) the campaign spec at path against
// its result file: expand the cell grid, run the not-yet-checkpointed cells
// on the worker pool, and render the merged per-combination sweeps. A
// finalized file, such as a satin-serve fleet's merged result, renders
// without running a cell. With maxCells > 0 the run stops early after that
// many new cells — the deterministic stand-in for a kill, used by
// `make campaign-smoke` to exercise resume.
//
// Cells that share boot work run as one group: cells that differ only in
// their (post-barrier) fault plan run the common prefix once from a
// checkpoint, and the cells of a seed the checkpoint protocol does not
// cover share one kernel boot. Result bytes are those of running every
// cell alone.
func runCampaignFile(out, errOut io.Writer, path, outPath string, workers, maxCells int, progress bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading campaign: %w", err)
	}
	c, err := campaign.Parse(data)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", path, err)
	}
	if outPath == "" {
		outPath = campaign.DefaultResultPath(path)
	}

	opt := campaign.RunOptions{
		Workers:    workers,
		MaxCells:   maxCells,
		SpecTrial:  satin.RunSpecTrial,
		GroupKey:   satin.CheckpointGroupKey,
		GroupTrial: satin.RunCheckpointGroup,
	}
	var cellTimes []telemetry.CellTiming
	if progress {
		// T in "d/t in T" is the time since the session started. Each cell's
		// own wall time feeds the post-run straggler report (Shard -1: a
		// local run has no shards).
		start := time.Now()
		opt.CellDone = func(e campaign.CellEvent) {
			elapsed := time.Since(start)
			fmt.Fprintf(errOut, "campaign: cell %d %s\n", e.Cell.Index, e.Detail())
			fmt.Fprintf(errOut, "campaign: %d/%d in %v%s\n",
				e.Done, e.Total, elapsed.Truncate(time.Millisecond), rateETA(e.Done, e.Total, elapsed))
			cellTimes = append(cellTimes, telemetry.CellTiming{
				Index: e.Cell.Index, Shard: -1,
				Ms: float64(e.Wall) / float64(time.Millisecond),
			})
		}
	}

	res, err := campaign.Run(context.Background(), c, outPath, opt)
	if err != nil {
		return err
	}
	if progress {
		telemetry.BuildStragglerReport(cellTimes, nil, 5).Render(errOut, "campaign: ")
	}
	renderCampaign(out, c, res, outPath)
	return nil
}

// rateETA renders the throughput suffix for a progress line: completed
// cells per second and the ETA it implies for the remainder. Early samples
// (zero elapsed, zero done) render nothing rather than dividing by zero —
// wall-clock diagnostics, like the rest of progress.
func rateETA(done, total int, elapsed time.Duration) string {
	if done <= 0 || elapsed <= 0 {
		return ""
	}
	rate := float64(done) / elapsed.Seconds()
	if done >= total {
		return fmt.Sprintf(" (%.1f cells/s)", rate)
	}
	eta := time.Duration(float64(total-done) / rate * float64(time.Second))
	return fmt.Sprintf(" (%.1f cells/s, ETA %v)", rate, eta.Truncate(time.Millisecond))
}

// renderCampaign prints the campaign summary and the per-combination sweep
// tables for every checkpointed cell.
func renderCampaign(out io.Writer, c campaign.Spec, res campaign.RunResult, outPath string) {
	name := c.Name
	if name == "" {
		name = "campaign"
	}
	section(out, fmt.Sprintf("Campaign %s — %d/%d cells (%s)", name, len(res.Results), len(res.Cells), outPath))
	for _, sw := range campaign.MergeSweeps(res.Cells, res.Results) {
		fmt.Fprintf(out, "\n-- %s --\n", sw.Name)
		fmt.Fprint(out, sw.Render())
	}
	if res.Finalized {
		fmt.Fprintf(out, "\ncampaign complete: %d cells finalized in %s\n", len(res.Cells), outPath)
	} else {
		fmt.Fprintf(out, "\ncampaign checkpointed: %d/%d cells complete; rerun the same command to resume\n",
			len(res.Results), len(res.Cells))
	}
}
