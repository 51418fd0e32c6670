package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"satin/internal/telemetry"
	"satin/internal/trace"
)

// Wire types. The campaign travels as its canonical JSON — the same bytes
// the result-file header embeds — so workers and the server agree on the
// expansion by construction.

// SubmitRequest is the POST /v1/campaigns body.
type SubmitRequest struct {
	Campaign json.RawMessage `json:"campaign"`
	Shards   int             `json:"shards"`
}

// JobStatus is one job's public state.
type JobStatus struct {
	ID         string        `json:"id"`
	Name       string        `json:"name,omitempty"`
	Cells      int           `json:"cells"`
	Done       int           `json:"done"`
	Shards     []ShardStatus `json:"shards"`
	Finalized  bool          `json:"finalized"`
	MergeError string        `json:"merge_error,omitempty"`
	// Stragglers is the wall-clock anomaly summary (telemetry side channel;
	// absent until something has been timed).
	Stragglers *telemetry.StragglerReport `json:"stragglers,omitempty"`
}

// ShardStatus is one shard's public state.
type ShardStatus struct {
	Shard  int    `json:"shard"`
	Cells  int    `json:"cells"`
	State  string `json:"state"`
	Worker string `json:"worker,omitempty"`
}

// Lease is one shard handout.
type Lease struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	Token string `json:"token"`
	TTLMs int64  `json:"ttl_ms"`
	// Cells are the campaign cell indices this shard executes.
	Cells []int `json:"cells"`
	// Campaign is the canonical campaign JSON.
	Campaign json.RawMessage `json:"campaign"`
}

// LeaseResponse is the POST /v1/lease reply. A nil Lease with Open true
// means "nothing leasable right now, poll again"; Open false means every
// shard of every job is done — workers exit.
type LeaseResponse struct {
	Open  bool   `json:"open"`
	Lease *Lease `json:"lease,omitempty"`
}

// ProgressReport is one completed cell, POSTed by a shard worker. CellNs
// and Forked are wall-clock telemetry piggybacked on the report (the lease
// renewal the worker sends anyway); the protocol ignores them.
type ProgressReport struct {
	Token  string `json:"token"`
	Index  int    `json:"index"`
	Detail string `json:"detail"`
	// CellNs is the cell's wall-clock duration in nanoseconds (0 = untimed).
	CellNs int64 `json:"cell_ns,omitempty"`
	// Forked marks a cell that resumed from its group's shared-prefix
	// snapshot (campaign.GroupResult.Forked).
	Forked bool `json:"forked,omitempty"`
}

// Typed error classes, mapped to HTTP statuses by the handler and back to
// sentinels by the client.

// ErrLeaseLost is returned (client-side) when the server no longer honors
// the worker's lease: it expired and was reassigned, or the shard is
// already done. The worker drops the shard and leases the next one.
var ErrLeaseLost = errors.New("serve: lease lost")

type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(err error) error { return &httpError{status: http.StatusBadRequest, err: err} }
func notFound(jobID string) error {
	return &httpError{status: http.StatusNotFound, err: fmt.Errorf("serve: no job %q", jobID)}
}
func notReady(jobID string) error {
	return &httpError{status: http.StatusConflict, err: fmt.Errorf("serve: job %s is not finalized yet", jobID)}
}
func leaseLost(jobID string, shardIdx int) error {
	return &httpError{status: http.StatusGone, err: fmt.Errorf("serve: lease on job %s shard %d lost", jobID, shardIdx)}
}

// Handler exposes the server over HTTP. Routes:
//
//	POST /v1/campaigns                            submit {campaign, shards}
//	GET  /v1/campaigns                            list job statuses
//	GET  /v1/campaigns/{id}                       one job's status
//	POST /v1/lease                                lease a shard (any job)
//	POST /v1/campaigns/{id}/shards/{shard}/progress  report one cell
//	POST /v1/campaigns/{id}/shards/{shard}/result    upload the shard file
//	GET  /v1/campaigns/{id}/result                merged finalized bytes
//	GET  /v1/campaigns/{id}/events?from=N         JSONL progress stream
//	GET  /v1/campaigns/{id}/timeline              Chrome trace_event JSON
//	GET  /metrics                                 Prometheus text exposition
//	GET  /healthz, /readyz                        liveness / readiness
//
// Every /v1 route is instrumented: request counts by route and status, and
// a latency histogram by route. The observability endpoints themselves are
// not (a scraper must not inflate the numbers it reads).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, h))
	}
	handle("POST /v1/campaigns", "submit", s.handleSubmit)
	handle("GET /v1/campaigns", "list", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"campaigns": s.List()})
	})
	handle("GET /v1/campaigns/{id}", "status", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, st)
	})
	handle("POST /v1/lease", "lease", s.handleLease)
	handle("POST /v1/campaigns/{id}/shards/{shard}/progress", "progress", s.handleProgress)
	handle("POST /v1/campaigns/{id}/shards/{shard}/result", "upload", s.handleUpload)
	handle("GET /v1/campaigns/{id}/result", "result", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Result(r.PathValue("id"))
		if err != nil {
			s.writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	handle("GET /v1/campaigns/{id}/events", "events", s.handleEvents)
	handle("GET /v1/campaigns/{id}/timeline", "timeline", s.handleTimeline)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := os.Stat(s.opt.DataDir); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "data dir unavailable")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// statusWriter records the response status for instrumentation. It must
// pass Flush through: handleEvents streams.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-route request counter and
// latency histogram, pre-registering the route's series so a scrape lists
// every route from the first request onward.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.tel.reg.Histogram("satin_http_request_duration_seconds",
		"HTTP request latency by route.", httpDurationBounds, "route", route)
	s.tel.reg.Counter("satin_http_requests_total",
		"HTTP requests by route and status code.", "route", route, "code", "200")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		hist.Observe(time.Since(start).Seconds())
		s.tel.reg.Counter("satin_http_requests_total", "",
			"route", route, "code", strconv.Itoa(sw.status)).Inc()
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.reg.WritePrometheus(w)
}

// handleTimeline serves one job's wall-clock history as Chrome trace_event
// JSON (loadable in ui.perfetto.dev, lintable by satin-sim -lint-chrome).
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	spans, err := s.Timeline(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteChromeTrace(w, spans)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, badRequest(fmt.Errorf("serve: submit body: %w", err)))
		return
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	st, err := s.Submit(req.Campaign, req.Shards)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		s.writeError(w, badRequest(fmt.Errorf("serve: lease body: %w", err)))
		return
	}
	lease, open, err := s.Lease(req.Worker)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, LeaseResponse{Open: open, Lease: lease})
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	shardIdx, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		s.writeError(w, badRequest(fmt.Errorf("serve: shard %q", r.PathValue("shard"))))
		return
	}
	var rep ProgressReport
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
		s.writeError(w, badRequest(fmt.Errorf("serve: progress body: %w", err)))
		return
	}
	if err := s.Progress(r.PathValue("id"), shardIdx, rep); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	shardIdx, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil {
		s.writeError(w, badRequest(fmt.Errorf("serve: shard %q", r.PathValue("shard"))))
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, badRequest(fmt.Errorf("serve: upload body: %w", err)))
		return
	}
	if err := s.Upload(r.PathValue("id"), shardIdx, r.Header.Get("X-Satin-Lease"), data); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// handleEvents streams the job's progress as JSONL trace.Events — one
// trace.KindCell line per cell a worker reported, in arrival order —
// flushing after every batch, until the job finishes or the client goes
// away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			s.writeError(w, badRequest(fmt.Errorf("serve: events from=%q", q)))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		events, changed, finished, err := s.EventsSince(r.PathValue("id"), from)
		if err != nil {
			if from == 0 {
				s.writeError(w, err)
			}
			return
		}
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		from += len(events)
		if flusher != nil {
			flusher.Flush()
		}
		if finished {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// DecodeEvents parses a JSONL event stream (the /events wire format) back
// into trace.Events — the client-side inverse of handleEvents.
func DecodeEvents(r io.Reader, fn func(trace.Event) error) error {
	dec := json.NewDecoder(r)
	for {
		var e trace.Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("serve: event stream: %w", err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeError maps an error onto its HTTP status and JSON body. Server
// faults (5xx) additionally go to the structured log — a 4xx is the
// client's problem, a 5xx is the operator's.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
	}
	if status >= 500 {
		s.log.Error("request failed", "status", status, "error", err.Error())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
