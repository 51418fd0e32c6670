// Package serve is the cross-process half of the campaign engine: a
// long-lived HTTP/JSON server that accepts campaign specs, partitions each
// into shards (internal/shard — groups stay intact, so boot sharing
// applies within a shard exactly as in one process), leases
// shards to pull-based workers with an expiry so a dead worker's shard is
// reassigned, streams per-cell progress as trace.KindCell events (one per
// cell a worker reports through its campaign.RunOptions.CellDone hook),
// and merges the uploaded per-shard result files into one finalized file
// whose bytes are identical to a single-process campaign.Run — for any
// shard count and any lease or kill history (campaign.Merge carries that
// invariant; the server only orchestrates).
//
// The package is deliberately split along trust lines: Server holds all
// state under one lock and is pure orchestration (no simulation imports),
// Client is the typed wire interface, and RunWorker is the lease → execute
// → upload loop `satin-serve -worker` runs. Workers execute their shard
// with campaign.Run (RunOptions.Only), so kill/resume inside a shard works
// exactly like any campaign session.
package serve

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"satin/internal/campaign"
	"satin/internal/shard"
	"satin/internal/telemetry"
	"satin/internal/trace"
)

// Shard lifecycle states.
const (
	// StatePending: never leased, or the last lease expired and was
	// reclaimed by a later lease scan.
	StatePending = "pending"
	// StateLeased: a worker holds the shard; renewed by progress reports.
	StateLeased = "leased"
	// StateDone: the shard's result file was uploaded and verified.
	StateDone = "done"
)

// DefaultLeaseTTL is the lease expiry when Options does not set one. A
// lease renews on every progress report (one per completed cell), so the
// TTL only needs to outlast the slowest single cell, not a whole shard.
const DefaultLeaseTTL = 60 * time.Second

// Options configures a Server.
type Options struct {
	// DataDir is where uploaded shard files and merged results live.
	DataDir string
	// LeaseTTL is the shard lease expiry (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Now is the clock (default time.Now). Injected for lease-expiry tests.
	Now func() time.Time
	// GroupKey, when non-nil, keeps each group — cells sharing a forkable
	// prefix or a seed's kernel boot — intact within a shard
	// (satin.CheckpointGroupKey in the binaries — injected because this
	// package must not import the facade).
	GroupKey campaign.GroupKeyFunc
	// Logger, when non-nil, receives structured protocol logs (lease
	// grants, expiries, stale rejections, uploads, merges) with job/shard/
	// worker/token fields. Nil means silent.
	Logger *slog.Logger
}

// Server owns the campaign jobs. All state lives under one mutex; handlers
// and the lease scan are short critical sections, and uploads verify the
// shard file bytes before taking the lock.
type Server struct {
	opt Options
	log *slog.Logger
	tel *serverTelemetry

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order: the lease scan walks oldest-first
	next  int
}

// job is one submitted campaign.
type job struct {
	id        string
	name      string
	spec      campaign.Spec
	specBytes []byte // canonical marshal — the campaign's identity
	cells     []campaign.Cell
	plan      shard.Plan
	shards    []*shardState
	dir       string

	// events is the per-cell progress log (trace.KindCell, Area = cell
	// index), appended as workers report; notify is closed and replaced on
	// every append or state change so streamers wake without polling.
	events []trace.Event
	notify chan struct{}

	// doneCells tracks cells reported complete (progress) or covered by a
	// verified upload; len is the job-wide done count in Status.
	doneCells map[int]bool

	finalized  bool
	mergeError string
	resultPath string

	// Wall-clock telemetry record (side channel — derived, never consulted
	// by the protocol, and absent from every result byte).
	submitted   time.Time
	finalizedAt time.Time
	cellTimes   []telemetry.CellTiming
	spans       []telemetry.Span
}

// shardState is one shard's lease lifecycle.
type shardState struct {
	state  string
	token  string
	worker string
	expiry time.Time
	path   string // verified upload, set when done

	// Wall-clock telemetry record (side channel, like job's).
	leases     int
	activeNs   time.Duration
	idleNs     time.Duration
	idleSince  time.Time // when the shard last became leasable
	leaseStart time.Time // current lease's grant instant
	lastMark   time.Time // previous cell-arrival boundary within the lease
}

// New builds a Server. DataDir must exist or be creatable.
func New(opt Options) (*Server, error) {
	if opt.DataDir == "" {
		return nil, fmt.Errorf("serve: Options.DataDir is required")
	}
	if err := os.MkdirAll(opt.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = DefaultLeaseTTL
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	log := opt.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	return &Server{
		opt:  opt,
		log:  log,
		tel:  newServerTelemetry(opt.Now()),
		jobs: map[string]*job{},
	}, nil
}

// Submit registers a campaign split into `shards` shards (1 to the
// campaign's cell count) and returns its status. The campaign is
// canonicalized first — the job's identity is the canonical form, exactly
// as in result files. Submitting a campaign whose canonical bytes and shard
// count match an existing unfinished job returns that job instead of
// forking a duplicate (so a retried submit is idempotent).
func (s *Server) Submit(campaignJSON []byte, shards int) (JobStatus, error) {
	c, err := campaign.Parse(campaignJSON)
	if err != nil {
		return JobStatus{}, badRequest(err)
	}
	canon, err := campaign.Canonicalize(c)
	if err != nil {
		return JobStatus{}, badRequest(err)
	}
	specBytes, err := campaign.Marshal(canon)
	if err != nil {
		return JobStatus{}, err
	}
	cells, err := campaign.Cells(canon)
	if err != nil {
		return JobStatus{}, badRequest(err)
	}
	// The shard count sizes the plan, the shard states and one histogram per
	// shard, so it is bounded by the cells there are to run.
	if shards < 1 || shards > len(cells) {
		return JobStatus{}, badRequest(fmt.Errorf("serve: shard count %d: need 1 to %d, the campaign's cell count", shards, len(cells)))
	}
	plan, err := shard.PlanCells(cells, shards, s.opt.GroupKey)
	if err != nil {
		return JobStatus{}, badRequest(err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		j := s.jobs[id]
		if !j.finalized && j.plan.Count() == shards && string(j.specBytes) == string(specBytes) {
			return s.statusLocked(j), nil
		}
	}
	s.next++
	now := s.opt.Now()
	j := &job{
		id:        fmt.Sprintf("c%d", s.next),
		name:      canon.Name,
		spec:      canon,
		specBytes: specBytes,
		cells:     cells,
		plan:      plan,
		dir:       filepath.Join(s.opt.DataDir, fmt.Sprintf("job-c%d", s.next)),
		notify:    make(chan struct{}),
		doneCells: map[int]bool{},
		submitted: now,
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return JobStatus{}, fmt.Errorf("serve: job dir: %w", err)
	}
	j.resultPath = filepath.Join(j.dir, "merged.result")
	for range j.plan.Shards {
		j.shards = append(j.shards, &shardState{state: StatePending, idleSince: now})
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobTelemetryInit(j)
	s.log.Info("job submitted", "job", j.id, "name", j.name,
		"cells", len(j.cells), "shards", len(j.shards))
	return s.statusLocked(j), nil
}

// Lease hands one leasable shard to a worker: the oldest job's lowest
// pending shard, where "pending" includes leases whose expiry has passed
// (the dead-worker reassignment). The second return reports whether any
// job still has unfinished shards at all — false tells an idle worker to
// exit rather than poll.
func (s *Server) Lease(worker string) (*Lease, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opt.Now()
	open := false
	for _, id := range s.order {
		j := s.jobs[id]
		if j.finalized {
			continue
		}
		for si, st := range j.shards {
			if st.state == StateDone {
				continue
			}
			open = true
			if st.state == StateLeased && now.Before(st.expiry) {
				continue
			}
			if st.state == StateLeased {
				// The previous lease ran out its TTL: reclaim it, closing its
				// interval at the expiry instant (the last moment we believed
				// in the worker).
				s.tel.leasesExpired.Inc()
				s.closeLeaseSpanLocked(j, si, st, st.expiry, true)
				s.log.Warn("lease expired", "job", j.id, "shard", si,
					"worker", st.worker, "token", st.token)
			}
			s.next++
			if !st.idleSince.IsZero() && now.After(st.idleSince) {
				st.idleNs += now.Sub(st.idleSince)
			}
			st.state = StateLeased
			st.token = fmt.Sprintf("l%d", s.next)
			st.worker = worker
			st.expiry = now.Add(s.opt.LeaseTTL)
			st.leases++
			st.leaseStart = now
			st.lastMark = now
			s.tel.leasesGranted.Inc()
			s.log.Info("lease granted", "job", j.id, "shard", si,
				"worker", worker, "token", st.token, "cells", len(j.plan.Shards[si]))
			j.changed()
			return &Lease{
				Job:      j.id,
				Shard:    si,
				Token:    st.token,
				TTLMs:    s.opt.LeaseTTL.Milliseconds(),
				Cells:    append([]int(nil), j.plan.Shards[si]...),
				Campaign: append([]byte(nil), j.specBytes...),
			}, true, nil
		}
	}
	return nil, open, nil
}

// Progress records one completed cell from a shard worker and renews its
// lease. The report becomes one trace.KindCell event on the job's stream,
// carrying the cell index and the worker's detail text. The report's
// wall-clock fields (CellNs, Forked) feed telemetry only — the protocol
// ignores them.
func (s *Server) Progress(jobID string, shardIdx int, rep ProgressReport) error {
	s.mu.Lock()
	j, st, err := s.shardLocked(jobID, shardIdx)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if st.state != StateLeased || st.token != rep.Token {
		s.tel.staleRejections.Inc()
		s.log.Warn("stale progress report", "job", jobID, "shard", shardIdx,
			"token", rep.Token, "cell", rep.Index)
		s.mu.Unlock()
		return leaseLost(jobID, shardIdx)
	}
	index, detail := rep.Index, rep.Detail
	if index < 0 || index >= len(j.cells) {
		s.mu.Unlock()
		return badRequest(fmt.Errorf("serve: progress for cell %d of %d", index, len(j.cells)))
	}
	now := s.opt.Now()
	st.expiry = now.Add(s.opt.LeaseTTL)
	e := trace.Event{Kind: trace.KindCell, Core: -1, Area: index, Detail: detail}
	j.events = append(j.events, e)
	j.doneCells[index] = true

	// Telemetry. The cell's timeline span is the arrival interval on the
	// shard's track ([lastMark, now] — sequential by construction, since
	// reports append under s.mu), not the worker-reported duration, which
	// overlaps under in-worker parallelism and belongs in the histogram.
	s.tel.leasesRenewed.Inc()
	s.tel.reg.Counter("satin_cells_reported_total", "", "job", j.id).Inc()
	if rep.Forked {
		s.tel.reg.Counter("satin_cells_forked_total", "", "job", j.id).Inc()
	}
	if rep.CellNs > 0 {
		sec := float64(rep.CellNs) / float64(time.Second)
		s.tel.reg.Histogram("satin_cell_duration_seconds", "", cellDurationBounds,
			"job", j.id, "shard", fmt.Sprintf("%d", shardIdx)).Observe(sec)
		j.cellTimes = append(j.cellTimes, telemetry.CellTiming{
			Index: index, Shard: shardIdx,
			Ms: float64(rep.CellNs) / float64(time.Millisecond),
		})
	}
	j.spans = append(j.spans, telemetry.Span{
		Process: "job " + j.id,
		Thread:  fmt.Sprintf("shard %d", shardIdx),
		Name:    fmt.Sprintf("cell %d", index),
		Detail:  detail,
		Begin:   st.lastMark.Sub(s.tel.t0),
		End:     now.Sub(s.tel.t0),
	})
	st.lastMark = now
	s.jobProgressMetricsLocked(j, now)
	s.log.Debug("cell reported", "job", j.id, "shard", shardIdx,
		"worker", st.worker, "token", rep.Token, "cell", index)

	j.changed()
	s.mu.Unlock()
	return nil
}

// Upload accepts a shard's result file. The bytes are verified before any
// state changes: the embedded campaign must match the job's canonical form
// and the records must cover every cell of the shard's plan (a superset
// from an earlier partial lease of the same worker is fine — merge
// tolerates identical duplicates). When the last shard lands, the server
// merges all shard files into the finalized result.
func (s *Server) Upload(jobID string, shardIdx int, token string, data []byte) error {
	specBytes, results, _, parseErr := campaign.ReadFile(data)

	s.mu.Lock()
	j, st, err := s.shardLocked(jobID, shardIdx)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// A dead lease outranks a bad payload: the worker's actionable signal
	// is "drop this shard", whatever it tried to send.
	if st.state != StateLeased || st.token != token {
		s.tel.staleRejections.Inc()
		s.log.Warn("stale upload", "job", jobID, "shard", shardIdx, "token", token)
		s.mu.Unlock()
		return leaseLost(jobID, shardIdx)
	}
	rejected := func(err error) error {
		s.tel.uploadsRejected.Inc()
		s.log.Warn("upload rejected", "job", jobID, "shard", shardIdx,
			"worker", st.worker, "token", token, "error", err.Error())
		s.mu.Unlock()
		return badRequest(err)
	}
	if parseErr != nil {
		return rejected(fmt.Errorf("serve: shard upload: %w", parseErr))
	}
	if string(specBytes) != string(j.specBytes) {
		return rejected(fmt.Errorf("serve: shard upload embeds a different campaign"))
	}
	have := map[int]bool{}
	for _, r := range results {
		have[r.Index] = true
	}
	for _, idx := range j.plan.Shards[shardIdx] {
		if !have[idx] {
			return rejected(fmt.Errorf("serve: shard %d upload is missing cell %d", shardIdx, idx))
		}
	}
	path := filepath.Join(j.dir, fmt.Sprintf("shard-%d.result", shardIdx))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("serve: storing shard: %w", err)
	}
	now := s.opt.Now()
	s.tel.uploadsVerified.Inc()
	s.closeLeaseSpanLocked(j, shardIdx, st, now, false)
	s.log.Info("upload verified", "job", j.id, "shard", shardIdx,
		"worker", st.worker, "token", token, "cells", len(results))
	st.state = StateDone
	st.path = path
	for _, r := range results {
		j.doneCells[r.Index] = true
	}
	allDone := true
	var shardFiles []string
	for _, other := range j.shards {
		if other.state != StateDone {
			allDone = false
			break
		}
		shardFiles = append(shardFiles, other.path)
	}
	if allDone {
		mergeErr := func() error { _, err := campaign.Merge(j.resultPath, shardFiles...); return err }()
		mergeEnd := s.opt.Now()
		if mergeErr != nil {
			j.mergeError = mergeErr.Error()
			s.tel.mergesError.Inc()
			s.log.Error("merge failed", "job", j.id, "error", mergeErr.Error())
		} else {
			j.finalized = true
			j.finalizedAt = mergeEnd
			s.tel.mergesOK.Inc()
			s.log.Info("job finalized", "job", j.id, "cells", len(j.cells))
		}
		detail := "ok"
		if j.mergeError != "" {
			detail = j.mergeError
		}
		j.spans = append(j.spans, telemetry.Span{
			Process: "job " + j.id,
			Thread:  "merge",
			Name:    "merge",
			Detail:  detail,
			Begin:   now.Sub(s.tel.t0),
			End:     mergeEnd.Sub(s.tel.t0),
		})
	}
	s.jobProgressMetricsLocked(j, now)
	j.changed()
	s.mu.Unlock()
	return nil
}

// Status reports one job.
func (s *Server) Status(jobID string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok {
		return JobStatus{}, notFound(jobID)
	}
	return s.statusLocked(j), nil
}

// List reports every job in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobStatus
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Result returns the finalized merged result bytes.
func (s *Server) Result(jobID string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[jobID]
	if !ok {
		s.mu.Unlock()
		return nil, notFound(jobID)
	}
	if !j.finalized {
		s.mu.Unlock()
		return nil, notReady(jobID)
	}
	path := j.resultPath
	s.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading merged result: %w", err)
	}
	return data, nil
}

// EventsSince returns the progress events from index `from` on, plus a
// channel that closes on the next change and whether the job is finished
// (finalized, or wedged on a merge error). Streamers loop: drain, write,
// wait on the channel.
func (s *Server) EventsSince(jobID string, from int) (events []trace.Event, changed <-chan struct{}, finished bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok {
		return nil, nil, false, notFound(jobID)
	}
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		events = append(events, j.events[from:]...)
	}
	return events, j.notify, j.finalized || j.mergeError != "", nil
}

// statusLocked renders a job's status; callers hold s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	now := s.opt.Now()
	st := JobStatus{
		ID:         j.id,
		Name:       j.name,
		Cells:      len(j.cells),
		Done:       len(j.doneCells),
		Finalized:  j.finalized,
		MergeError: j.mergeError,
	}
	for si, sh := range j.shards {
		state := sh.state
		if state == StateLeased && !now.Before(sh.expiry) {
			// An expired lease is pending again in every way that matters;
			// report it that way so status never shows a phantom worker.
			state = StatePending
		}
		st.Shards = append(st.Shards, ShardStatus{
			Shard:  si,
			Cells:  len(j.plan.Shards[si]),
			State:  state,
			Worker: sh.worker,
		})
	}
	st.Stragglers = s.stragglersLocked(j, now)
	return st
}

// shardLocked resolves a (job, shard) pair; callers hold s.mu.
func (s *Server) shardLocked(jobID string, shardIdx int) (*job, *shardState, error) {
	j, ok := s.jobs[jobID]
	if !ok {
		return nil, nil, notFound(jobID)
	}
	if shardIdx < 0 || shardIdx >= len(j.shards) {
		return nil, nil, badRequest(fmt.Errorf("serve: job %s has no shard %d", jobID, shardIdx))
	}
	return j, j.shards[shardIdx], nil
}

// changed wakes every waiter on the job's notify channel.
func (j *job) changed() {
	close(j.notify)
	j.notify = make(chan struct{})
}
