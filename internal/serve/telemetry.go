package serve

import (
	"fmt"
	"time"

	"satin/internal/telemetry"
)

// telemetry.go is the server's wall-clock observability side channel: every
// protocol transition (lease granted/expired/renewed, stale rejection,
// upload verified/rejected, merge) feeds Prometheus-style metrics, a
// Chrome-trace campaign timeline, and the straggler report. None of it may
// influence the campaign protocol or the finalized result bytes — the
// fields live next to the protocol state but are written strictly after
// protocol decisions, and everything here is derived, never consulted.

// Histogram bounds, in seconds.
var (
	cellDurationBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}
	httpDurationBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}
)

// serverTelemetry holds the registry plus the static (label-less) handles,
// registered eagerly at New so every family appears in /metrics from the
// first scrape — a fleet dashboard must not miss a counter merely because
// nothing bad has happened yet.
type serverTelemetry struct {
	reg *telemetry.Registry
	// t0 is the timeline zero: every exported span is an offset from the
	// server's start.
	t0 time.Time

	leasesGranted   *telemetry.Counter
	leasesExpired   *telemetry.Counter
	leasesRenewed   *telemetry.Counter
	staleRejections *telemetry.Counter
	uploadsVerified *telemetry.Counter
	uploadsRejected *telemetry.Counter
	mergesOK        *telemetry.Counter
	mergesError     *telemetry.Counter
}

func newServerTelemetry(t0 time.Time) *serverTelemetry {
	reg := telemetry.NewRegistry()
	return &serverTelemetry{
		reg: reg,
		t0:  t0,
		leasesGranted: reg.Counter("satin_leases_granted_total",
			"Shard leases handed to workers, including re-leases."),
		leasesExpired: reg.Counter("satin_leases_expired_total",
			"Leases reclaimed after their TTL passed without a progress report."),
		leasesRenewed: reg.Counter("satin_leases_renewed_total",
			"Lease renewals (one per accepted progress report)."),
		staleRejections: reg.Counter("satin_lease_stale_rejections_total",
			"Progress reports or uploads rejected because the lease token was stale."),
		uploadsVerified: reg.Counter("satin_uploads_verified_total",
			"Shard result uploads that passed verification and were stored."),
		uploadsRejected: reg.Counter("satin_uploads_rejected_total",
			"Shard result uploads rejected on verification (bad payload)."),
		mergesOK: reg.Counter("satin_merges_total",
			"Campaign merges by outcome.", "outcome", "ok"),
		mergesError: reg.Counter("satin_merges_total",
			"Campaign merges by outcome.", "outcome", "error"),
	}
}

// Metrics exposes the server's telemetry registry (the /metrics source).
func (s *Server) Metrics() *telemetry.Registry { return s.tel.reg }

// jobTelemetryInit pre-registers the per-job metric families at submit time
// so a scrape sees the job's series (at zero) before the first worker
// reports. Callers hold s.mu.
func (s *Server) jobTelemetryInit(j *job) {
	reg := s.tel.reg
	reg.Gauge("satin_job_cells_total", "Cells in the campaign's expansion.",
		"job", j.id).Set(float64(len(j.cells)))
	reg.Gauge("satin_job_cells_done", "Cells completed so far.", "job", j.id)
	reg.Gauge("satin_job_cells_per_second",
		"Job-wide completion throughput since submit (wall clock).", "job", j.id)
	reg.Counter("satin_cells_reported_total",
		"Per-cell progress reports accepted.", "job", j.id)
	reg.Counter("satin_cells_forked_total",
		"Reported cells that resumed from a shared-prefix snapshot.", "job", j.id)
	for si := range j.shards {
		reg.Histogram("satin_cell_duration_seconds",
			"Worker-reported wall-clock cell durations.", cellDurationBounds,
			"job", j.id, "shard", fmt.Sprintf("%d", si))
	}
}

// jobProgressMetricsLocked refreshes the job-level gauges after doneCells
// changed. Callers hold s.mu.
func (s *Server) jobProgressMetricsLocked(j *job, now time.Time) {
	s.tel.reg.Gauge("satin_job_cells_done", "", "job", j.id).Set(float64(len(j.doneCells)))
	if elapsed := now.Sub(j.submitted).Seconds(); elapsed > 0 {
		s.tel.reg.Gauge("satin_job_cells_per_second", "", "job", j.id).
			Set(float64(len(j.doneCells)) / elapsed)
	}
}

// closeLeaseSpanLocked ends a shard's open lease interval at `end` and
// accounts its active time; the shard is idle from `end` until the next
// grant. Callers hold s.mu.
func (s *Server) closeLeaseSpanLocked(j *job, si int, st *shardState, end time.Time, expired bool) {
	name := fmt.Sprintf("lease %s", st.token)
	detail := fmt.Sprintf("worker %s", st.worker)
	if expired {
		detail += " (expired)"
	}
	j.spans = append(j.spans, telemetry.Span{
		Process: "job " + j.id,
		Thread:  fmt.Sprintf("shard %d", si),
		Name:    name,
		Detail:  detail,
		Begin:   st.leaseStart.Sub(s.tel.t0),
		End:     end.Sub(s.tel.t0),
	})
	st.activeNs += end.Sub(st.leaseStart)
	st.idleSince = end
}

// stragglersLocked folds the job's wall-clock record into a straggler
// report, including in-flight lease/idle time up to `now`. Callers hold
// s.mu. Returns nil when nothing has been timed yet.
func (s *Server) stragglersLocked(j *job, now time.Time) *telemetry.StragglerReport {
	var shards []telemetry.ShardTiming
	any := false
	for si, st := range j.shards {
		t := telemetry.ShardTiming{
			Shard:    si,
			Leases:   st.leases,
			ActiveMs: float64(st.activeNs) / float64(time.Millisecond),
			IdleMs:   float64(st.idleNs) / float64(time.Millisecond),
			Done:     st.state == StateDone,
		}
		switch {
		case st.state == StateLeased && now.Before(st.expiry):
			t.ActiveMs += float64(now.Sub(st.leaseStart)) / float64(time.Millisecond)
		case st.state != StateDone && !st.idleSince.IsZero():
			// Pending (or expired-but-unreclaimed) shards accrue idle live.
			idleFrom := st.idleSince
			if st.state == StateLeased {
				t.ActiveMs += float64(st.expiry.Sub(st.leaseStart)) / float64(time.Millisecond)
				idleFrom = st.expiry
			}
			if now.After(idleFrom) {
				t.IdleMs += float64(now.Sub(idleFrom)) / float64(time.Millisecond)
			}
		}
		if st.leases > 0 || t.IdleMs > 0 || t.ActiveMs > 0 {
			any = true
		}
		shards = append(shards, t)
	}
	if !any && len(j.cellTimes) == 0 {
		return nil
	}
	return telemetry.BuildStragglerReport(j.cellTimes, shards, 5)
}

// Timeline renders one job's wall-clock history as spans ready for
// telemetry.WriteChromeTrace: the job-lifetime span, every closed lease and
// cell interval, the merge, and any still-open lease clamped at now.
func (s *Server) Timeline(jobID string) ([]telemetry.Span, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobID]
	if !ok {
		return nil, notFound(jobID)
	}
	now := s.opt.Now()
	jobEnd, open := now, true
	if !j.finalizedAt.IsZero() {
		jobEnd, open = j.finalizedAt, false
	}
	spans := []telemetry.Span{{
		Process: "job " + j.id,
		Thread:  "job",
		Name:    "job " + j.id,
		Detail:  j.name,
		Begin:   j.submitted.Sub(s.tel.t0),
		End:     jobEnd.Sub(s.tel.t0),
		Open:    open,
	}}
	spans = append(spans, j.spans...)
	for si, st := range j.shards {
		if st.state != StateLeased {
			continue
		}
		end := now
		if !now.Before(st.expiry) {
			end = st.expiry
		}
		spans = append(spans, telemetry.Span{
			Process: "job " + j.id,
			Thread:  fmt.Sprintf("shard %d", si),
			Name:    fmt.Sprintf("lease %s", st.token),
			Detail:  fmt.Sprintf("worker %s", st.worker),
			Begin:   st.leaseStart.Sub(s.tel.t0),
			End:     end.Sub(s.tel.t0),
			Open:    true,
		})
	}
	return spans, nil
}
