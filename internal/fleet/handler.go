package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/serve"
)

// HandlerConfig tunes the router's HTTP surface.
type HandlerConfig struct {
	// OnDrain, when set, is invoked once (on its own goroutine) after a
	// POST /drain has drained every shard and written the merged report —
	// the host process's cue to shut the listener down and exit.
	OnDrain func()
	// Logf receives handler-level diagnostics. Defaults to log.Printf.
	Logf func(format string, args ...any)
}

// DrainSummary is the fleet drain handshake's answer: every shard's
// drain response plus the merged report (see Merge) that a
// gpmrfleet -replay of the shard traces must reproduce byte for byte.
type DrainSummary struct {
	Shards []serve.DrainResponse `json:"shards"`
	Report string                `json:"report"`
}

// handler is the fleet front door: the same job API a single gpmrd
// shard serves, backed by the router instead of one cluster.
type handler struct {
	rt      *Router
	cfg     HandlerConfig
	onDrain sync.Once // fires cfg.OnDrain after the first answered drain
}

// NewHandler builds the router's HTTP API.
//
//	POST   /jobs                 submit → routed to a shard → 202 fleet job record
//	GET    /jobs                 the fleet job table
//	GET    /jobs/{id}            one fleet job record
//	GET    /jobs/{id}/output     proxied to the owning shard
//	GET    /jobs/{id}/timeline   proxied to the owning shard
//	GET    /jobs/{id}/explain    shard's phase breakdown wrapped with the
//	                             router hop record (?format=text for prose)
//	DELETE /jobs/{id}            cancel, proxied to the owning shard
//	GET    /timeline             live stitched fleet timeline (router +
//	                             every shard, per-shard lane groups)
//	GET    /shards               ring membership + per-shard health
//	GET    /metrics              Prometheus text exposition (router counters)
//	GET    /healthz              liveness: 200 "ok", or 503 "draining"
//	POST   /drain                drain every shard, answer with the merged report
func NewHandler(rt *Router, cfg HandlerConfig) http.Handler {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	h := &handler{rt: rt, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", h.submit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, http.StatusOK, rt.Jobs())
	})
	mux.HandleFunc("GET /jobs/{id}", h.job)
	mux.HandleFunc("DELETE /jobs/{id}", h.cancel)
	mux.HandleFunc("GET /jobs/{id}/output", h.proxy("/output"))
	mux.HandleFunc("GET /jobs/{id}/timeline", h.proxy("/timeline"))
	mux.HandleFunc("GET /jobs/{id}/explain", h.explain)
	mux.HandleFunc("GET /timeline", h.timeline)
	mux.HandleFunc("GET /shards", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, http.StatusOK, rt.Status())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, rt)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if rt.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /drain", h.drain)
	return mux
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var req serve.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		h.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	st := h.rt.Submit(req)
	if st.Err != "" {
		h.writeJSON(w, st.Code, map[string]string{"error": st.Err})
		return
	}
	if st.Code == http.StatusTooManyRequests {
		// Forward the shedding shard's own drain prediction (floor 1 s).
		w.Header().Set("Retry-After", strconv.Itoa(max(st.Shard.RetryAfter, 1)))
	}
	h.writeJSON(w, st.Code, st.Job)
}

func (h *handler) jobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		h.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id"})
		return 0, false
	}
	return id, true
}

func (h *handler) job(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	job, ok := h.rt.Job(id)
	if !ok {
		h.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	h.writeJSON(w, http.StatusOK, job)
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	code, err := h.rt.Cancel(id)
	if err != nil {
		h.writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	if code != http.StatusOK {
		h.writeJSON(w, code, map[string]string{"error": "shard refused the cancel"})
		return
	}
	h.writeJSON(w, http.StatusOK, map[string]bool{"cancelled": true})
}

// proxy forwards a per-job GET to the owning shard, preserving the
// shard's status and content type.
func (h *handler) proxy(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := h.jobID(w, r)
		if !ok {
			return
		}
		var buf bytes.Buffer
		code, ctype, err := h.rt.Proxy(&buf, id, suffix)
		if err != nil {
			h.writeJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		if ctype != "" {
			w.Header().Set("Content-Type", ctype)
		}
		w.WriteHeader(code)
		if _, err := w.Write(buf.Bytes()); err != nil {
			h.cfg.Logf("fleet: writing proxied response: %v", err)
		}
	}
}

// explain proxies a job's phase breakdown from its owning shard and
// prepends the router's hop record — the fleet half of the causal
// chain — so the answer covers router → shard → sched → core.
func (h *handler) explain(w http.ResponseWriter, r *http.Request) {
	id, ok := h.jobID(w, r)
	if !ok {
		return
	}
	job, ok := h.rt.Job(id)
	if !ok {
		h.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	text := r.URL.Query().Get("format") == "text"
	suffix := "/explain"
	if text {
		suffix += "?format=text"
	}
	var buf bytes.Buffer
	code, ctype, err := h.rt.Proxy(&buf, id, suffix)
	if err != nil {
		h.writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	if code != http.StatusOK {
		// The shard's own error answer passes through untouched.
		if ctype != "" {
			w.Header().Set("Content-Type", ctype)
		}
		w.WriteHeader(code)
		w.Write(buf.Bytes())
		return
	}
	if text {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "fleet: job %d  tag %s  trace %s  shard %s  attempts %d  state %s\n",
			job.ID, job.Tag, job.TraceID, job.Shard, job.Attempts, job.State)
		if _, err := w.Write(buf.Bytes()); err != nil {
			h.cfg.Logf("fleet: writing explain response: %v", err)
		}
		return
	}
	h.writeJSON(w, http.StatusOK, struct {
		Fleet   FleetJob        `json:"fleet"`
		Explain json.RawMessage `json:"explain"`
	}{job, json.RawMessage(bytes.TrimSpace(buf.Bytes()))})
}

// timeline serves the live stitched fleet timeline.
func (h *handler) timeline(w http.ResponseWriter, r *http.Request) {
	// Buffered: a shard fetch failure must still become a clean status.
	var buf bytes.Buffer
	if err := h.rt.WriteTimeline(&buf); err != nil {
		h.writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		h.cfg.Logf("fleet: writing timeline response: %v", err)
	}
}

// drain answers the fleet drain handshake. Router.Drain runs once and
// hands every caller, concurrent ones included, the same responses.
func (h *handler) drain(w http.ResponseWriter, r *http.Request) {
	resps, err := h.rt.Drain()
	if err != nil && len(resps) == 0 {
		h.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	h.writeJSON(w, http.StatusOK, DrainSummary{Shards: resps, Report: Merge(resps)})
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
		h.cfg.Logf("fleet: encoding %d response: %v", code, err)
	}
}

// writeMetrics renders the router's Prometheus text exposition.
func writeMetrics(w io.Writer, rt *Router) {
	s := rt.Stats()
	st := rt.Status()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("gpmr_fleet_submissions_total", "Fleet-level submissions.", s.Submitted)
	counter("gpmr_fleet_accepted_total", "Submissions routed onto a shard.", s.Accepted)
	counter("gpmr_fleet_rejected_total", "Submissions a shard explicitly shed.", s.Rejected)
	counter("gpmr_fleet_unrouted_total", "Submissions no live shard could take.", s.Unrouted)
	counter("gpmr_fleet_retries_total", "Same-shard submission retries.", s.Retries)
	counter("gpmr_fleet_reroutes_total", "Submissions moved to another ring candidate.", s.Reroutes)
	counter("gpmr_fleet_failovers_total", "Jobs re-admitted after a shard loss.", s.Failovers)
	counter("gpmr_fleet_lost_total", "Jobs no survivor would take.", s.Lost)
	counter("gpmr_fleet_transitions_total", "Ring membership changes.", s.Transitions)
	counter("gpmr_fleet_probe_failures_total", "Failed interactions (probes or submissions) with non-down shards.", s.ProbeFails)
	fmt.Fprintf(w, "# HELP gpmr_fleet_ring_epoch Current ring epoch.\n# TYPE gpmr_fleet_ring_epoch gauge\ngpmr_fleet_ring_epoch %d\n", st.Epoch)
	fmt.Fprintln(w, "# HELP gpmr_fleet_shard_up Shard liveness (1 up, 0 draining or down).")
	fmt.Fprintln(w, "# TYPE gpmr_fleet_shard_up gauge")
	for _, sh := range st.Shards {
		up := 0
		if sh.State == shardUp {
			up = 1
		}
		fmt.Fprintf(w, "gpmr_fleet_shard_up{shard=%q} %d\n", sh.ID, up)
	}
	// One-hot state gauge: dashboards see the current state directly, not
	// just liveness — a draining shard is healthy but leaving.
	fmt.Fprintln(w, "# HELP gpmr_fleet_shard_state Shard state one-hot (exactly one of up/draining/down is 1).")
	fmt.Fprintln(w, "# TYPE gpmr_fleet_shard_state gauge")
	for _, sh := range st.Shards {
		for _, state := range []string{shardUp, shardDraining, shardDown} {
			v := 0
			if sh.State == state {
				v = 1
			}
			fmt.Fprintf(w, "gpmr_fleet_shard_state{shard=%q,state=%q} %d\n", sh.ID, state, v)
		}
	}
	fmt.Fprintln(w, "# HELP gpmr_fleet_routed_total Accepted submissions per shard.")
	fmt.Fprintln(w, "# TYPE gpmr_fleet_routed_total counter")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "gpmr_fleet_routed_total{shard=%q} %d\n", sh.ID, sh.Routed)
	}
	fmt.Fprintln(w, "# HELP gpmr_fleet_shard_queued Router-view queued jobs per shard.")
	fmt.Fprintln(w, "# TYPE gpmr_fleet_shard_queued gauge")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "gpmr_fleet_shard_queued{shard=%q} %d\n", sh.ID, sh.Queued)
	}
}
