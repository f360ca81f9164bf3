package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
)

// HandlerConfig tunes the HTTP surface around a Server.
type HandlerConfig struct {
	// OnDrain, when set, is invoked once (on its own goroutine) after a
	// POST /drain has drained the server and written its response — the
	// host process's cue to shut the listener down and exit.
	OnDrain func()
	// Logf receives handler-level diagnostics (encode failures, render
	// errors). Defaults to log.Printf.
	Logf func(format string, args ...any)
}

// handler is the shard's HTTP API: the job endpoints the gpmrd daemon
// has always served, plus the fleet seam — registration, drain
// handshake, and output retrieval — that lets a gpmrfleet router treat
// this server as one shard of many.
type handler struct {
	sv      *Server
	cfg     HandlerConfig
	onDrain sync.Once // fires cfg.OnDrain after the first answered drain
}

// DrainResponse is the drain handshake's answer: the shard's fleet
// identity, its final admission counters, and the full report text. The
// report is what gpmrfleet merges — a replay of the shard's recorded
// arrival trace reproduces it byte for byte.
type DrainResponse struct {
	Shard     string `json:"shard,omitempty"`
	Epoch     int    `json:"epoch,omitempty"`
	Submitted int64  `json:"submitted"`
	Done      int64  `json:"done"`
	Failed    int64  `json:"failed"`
	Cancelled int64  `json:"cancelled"`
	Rejected  int64  `json:"rejected"`
	Report    string `json:"report"`
}

// DrainResponse summarizes a drained (or replayed) report as shard's drain
// answer. The live handler and fleet's offline replay both go through it,
// so their counters cannot drift apart.
func (r *Report) DrainResponse(shard string, epoch int) DrainResponse {
	s := &r.Stats
	return DrainResponse{
		Shard: shard, Epoch: epoch,
		Submitted: s.Submitted, Done: s.Done, Failed: s.Failed,
		Cancelled: s.Cancelled, Rejected: s.rejected(),
		Report: r.String(),
	}
}

// FleetRegistration is the router→shard registration handshake body.
type FleetRegistration struct {
	Shard string `json:"shard"`
	Epoch int    `json:"epoch"`
}

// NewHandler builds the HTTP API for a running Server.
//
//	POST   /jobs                 submit {"tenant","kind","params",...} → 202 JobInfo
//	GET    /jobs                 list all job records
//	GET    /jobs/{id}            one job record
//	GET    /jobs/{id}/timeline   the job's flight-recorder timeline (Chrome trace JSON)
//	GET    /jobs/{id}/explain    phase breakdown + bottleneck attribution
//	                             (JSON; ?format=text for the fixed-format report)
//	GET    /jobs/{id}/output     a completed job's canonical output text
//	DELETE /jobs/{id}            cancel a queued job
//	GET    /flight               the full flight recording as canonical JSONL
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness: 200 "ok", or 503 "draining"
//	POST   /fleet/register       router handshake: stamp shard id + ring epoch
//	POST   /drain                drain handshake: stop admissions, wait for
//	                             admitted jobs, answer with the final report
func NewHandler(sv *Server, cfg HandlerConfig) http.Handler {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	h := &handler{sv: sv, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", h.submit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, http.StatusOK, sv.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", h.job)
	mux.HandleFunc("DELETE /jobs/{id}", h.cancel)
	mux.HandleFunc("GET /jobs/{id}/timeline", h.timeline)
	mux.HandleFunc("GET /jobs/{id}/explain", h.explain)
	mux.HandleFunc("GET /jobs/{id}/output", h.output)
	mux.HandleFunc("GET /flight", h.flight)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		sv.WriteMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if sv.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /fleet/register", h.register)
	mux.HandleFunc("POST /drain", h.drain)
	return mux
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		h.httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	info, err := h.sv.Submit(req)
	if err != nil {
		// ErrDraining (or a closed injector): the shard is shutting down.
		// 503 is a terminal, retryable answer — the router reroutes.
		h.httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	switch {
	case info.State != Rejected:
		h.writeJSON(w, http.StatusAccepted, info)
	case info.RetryAfter > 0:
		// Backpressure (a shed or quota reject, the only ones that carry a
		// hint): the client should retry once the backlog has plausibly
		// drained — the admission path predicts that from the queued jobs'
		// cost-model estimates (JobInfo.RetryAfter, wall seconds, at least
		// 1), so a deep backlog pushes retries further out than a shallow
		// one.
		w.Header().Set("Retry-After", strconv.Itoa(info.RetryAfter))
		h.writeJSON(w, http.StatusTooManyRequests, info)
	default:
		h.writeJSON(w, http.StatusBadRequest, info)
	}
}

// jobID parses the {id} path value, answering 400 itself on failure.
func (h *handler) jobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		h.httpError(w, http.StatusBadRequest, "bad job id")
		return 0, false
	}
	return id, true
}

func (h *handler) job(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	info, ok := h.sv.Job(id)
	if !ok {
		h.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	h.writeJSON(w, http.StatusOK, info)
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	if _, known := h.sv.Job(id); !known {
		h.httpError(w, http.StatusNotFound, "no such job")
		return
	}
	ok, err := h.sv.Cancel(id)
	if err != nil {
		h.httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if !ok {
		// Both failures are 409s, but they are different conflicts: a
		// running job could be cancellable under a preempting policy,
		// while a finished one never is again.
		info, _ := h.sv.Job(id)
		switch info.State {
		case Running:
			h.httpError(w, http.StatusConflict, "job is running (policy does not preempt)")
		default:
			h.httpError(w, http.StatusConflict, fmt.Sprintf("job already finished (state %s)", info.State))
		}
		return
	}
	h.writeJSON(w, http.StatusOK, map[string]bool{"cancelled": true})
}

func (h *handler) timeline(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	// Buffer so an error can still become a clean status: 404 only for a
	// job the service has never heard of; render/IO failures are 500s.
	var buf bytes.Buffer
	if err := h.sv.WriteTimeline(&buf, id); err != nil {
		if errors.Is(err, ErrUnknownJob) {
			h.httpError(w, http.StatusNotFound, err.Error())
			return
		}
		h.cfg.Logf("serve: timeline for job %d: %v", id, err)
		h.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		h.cfg.Logf("serve: writing timeline response: %v", err)
	}
}

func (h *handler) explain(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	ex, err := h.sv.Explain(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		h.httpError(w, http.StatusNotFound, err.Error())
		return
	case err != nil:
		// ErrNoRecorder: the daemon was started without a flight recorder.
		h.httpError(w, http.StatusConflict, err.Error())
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := io.WriteString(w, ex.String()); err != nil {
			h.cfg.Logf("serve: writing explain response: %v", err)
		}
		return
	}
	h.writeJSON(w, http.StatusOK, ex)
}

func (h *handler) flight(w http.ResponseWriter, r *http.Request) {
	// Buffered like timeline: render errors become clean statuses.
	var buf bytes.Buffer
	if err := h.sv.WriteFlight(&buf); err != nil {
		h.httpError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if _, err := w.Write(buf.Bytes()); err != nil {
		h.cfg.Logf("serve: writing flight response: %v", err)
	}
}

func (h *handler) output(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	out, err := h.sv.Output(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		h.httpError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, ErrNoOutput):
		h.httpError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		h.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := io.WriteString(w, out); err != nil {
		h.cfg.Logf("serve: writing output response: %v", err)
	}
}

func (h *handler) register(w http.ResponseWriter, r *http.Request) {
	var reg FleetRegistration
	if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
		h.httpError(w, http.StatusBadRequest, "bad registration body: "+err.Error())
		return
	}
	if err := h.sv.SetFleet(reg.Shard, reg.Epoch); err != nil {
		// Registration races a trace whose header is already on disk:
		// the identity cannot change any more.
		h.httpError(w, http.StatusConflict, err.Error())
		return
	}
	h.writeJSON(w, http.StatusOK, reg)
}

// drain answers the drain handshake. Server.Drain runs once and hands
// every caller, concurrent ones included, the same report.
func (h *handler) drain(w http.ResponseWriter, r *http.Request) {
	rep, err := h.sv.Drain()
	if err != nil {
		h.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	h.writeJSON(w, http.StatusOK, rep.DrainResponse(h.sv.FleetID()))
	if h.cfg.OnDrain != nil {
		// On a fresh goroutine: the host's shutdown path may wait for
		// this very handler to return.
		h.onDrain.Do(func() { go h.cfg.OnDrain() })
	}
}

func (h *handler) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is gone; all that's left is to say so.
		h.cfg.Logf("serve: encoding %d response: %v", code, err)
	}
}

func (h *handler) httpError(w http.ResponseWriter, code int, msg string) {
	h.writeJSON(w, code, map[string]string{"error": msg})
}
