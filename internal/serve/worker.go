package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"satin/internal/campaign"
	"satin/internal/telemetry"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Name identifies the worker in leases and status output.
	Name string
	// Dir holds the per-shard result files. Keyed by job and shard, so a
	// worker that re-leases a shard it half-finished resumes its own
	// checkpoint instead of starting over.
	Dir string
	// Trial executes scenario cells (satin.RunSpecTrial in the binaries).
	Trial campaign.SpecTrialFunc
	// GroupKey and GroupTrial, when both non-nil, enable boot sharing
	// within the shard (the planner kept groups intact).
	GroupKey   campaign.GroupKeyFunc
	GroupTrial campaign.GroupTrialFunc
	// Workers bounds the in-process pool per shard (0 = GOMAXPROCS).
	Workers int
	// Poll is the idle wait between lease attempts while jobs are still in
	// flight elsewhere (default 150ms).
	Poll time.Duration
	// Logger, when non-nil, receives structured lease/upload transitions
	// with worker/job/shard/token fields. Nil means silent.
	Logger *slog.Logger
}

// RunWorker is the pull loop `satin-serve -worker` runs: lease a shard,
// execute it with campaign.Run restricted to the shard's cells (posting one
// progress report per completed cell — which is also the lease renewal),
// upload the shard's result file, repeat. It returns nil when the server reports no open work
// left, and keeps going across lost leases (another worker inherited the
// shard — the deterministic cells make any overlap merge-compatible).
func RunWorker(ctx context.Context, client *Client, opt WorkerOptions) error {
	if opt.Poll <= 0 {
		opt.Poll = 150 * time.Millisecond
	}
	if opt.Dir == "" {
		return fmt.Errorf("serve: worker needs a scratch dir")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return fmt.Errorf("serve: worker dir: %w", err)
	}
	if opt.Logger == nil {
		opt.Logger = telemetry.NopLogger()
	}
	log := opt.Logger.With("worker", opt.Name)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, open, err := client.Lease(ctx, opt.Name)
		if err != nil {
			return fmt.Errorf("serve: leasing: %w", err)
		}
		if lease == nil {
			if !open {
				log.Info("no work left, exiting")
				return nil
			}
			select {
			case <-time.After(opt.Poll):
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		log.Info("leased shard", "job", lease.Job, "shard", lease.Shard,
			"token", lease.Token, "cells", len(lease.Cells))
		if err := runLease(ctx, client, opt, lease); err != nil {
			if errors.Is(err, ErrLeaseLost) {
				// The server reassigned the shard (our lease expired, or a
				// peer finished it). Drop it and pull the next one.
				log.Warn("lost lease", "job", lease.Job, "shard", lease.Shard,
					"token", lease.Token)
				continue
			}
			return err
		}
		log.Info("uploaded shard", "job", lease.Job, "shard", lease.Shard,
			"token", lease.Token)
	}
}

// runLease executes one leased shard end to end.
func runLease(ctx context.Context, client *Client, opt WorkerOptions, lease *Lease) error {
	c, err := campaign.Parse(lease.Campaign)
	if err != nil {
		return fmt.Errorf("serve: leased campaign: %w", err)
	}

	// A lost lease cancels the shard run: there is no point finishing cells
	// the server will take from someone else, and the checkpoint keeps what
	// was done in case the shard comes back to us.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// CellDone calls are serialized, so lost needs no lock of its own; Run
	// has returned by the time it is read below.
	var lost bool
	path := filepath.Join(opt.Dir, fmt.Sprintf("%s-shard-%d.result", lease.Job, lease.Shard))
	_, err = campaign.Run(runCtx, c, path, campaign.RunOptions{
		Workers:    opt.Workers,
		Only:       append([]int(nil), lease.Cells...),
		SpecTrial:  opt.Trial,
		GroupKey:   opt.GroupKey,
		GroupTrial: opt.GroupTrial,
		CellDone: func(e campaign.CellEvent) {
			if lost {
				return
			}
			rep := ProgressReport{
				Token:  lease.Token,
				Index:  e.Cell.Index,
				Detail: e.Detail(),
				CellNs: e.Wall.Nanoseconds(),
				Forked: e.Forked,
			}
			if err := client.Progress(ctx, lease.Job, lease.Shard, rep); err != nil {
				if errors.Is(err, ErrLeaseLost) {
					lost = true
					cancel()
				}
				// Other report failures are tolerable: progress is advisory
				// and the lease has TTLs worth of slack; the upload is the
				// real commit point.
			}
		},
	})
	if lost {
		return fmt.Errorf("%w: while running job %s shard %d", ErrLeaseLost, lease.Job, lease.Shard)
	}
	if err != nil {
		return fmt.Errorf("serve: running shard: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("serve: reading shard result: %w", err)
	}
	return client.Upload(ctx, lease.Job, lease.Shard, lease.Token, data)
}
