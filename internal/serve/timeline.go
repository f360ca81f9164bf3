package serve

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// ErrNoRecorder reports a timeline request against a server started
// without a flight recorder (Config.Cluster.Obs unset).
var ErrNoRecorder = fmt.Errorf("serve: no flight recorder configured")

// WriteTimeline renders one job's slice of the flight-recorder trace as
// Chrome trace-event JSON (load in Perfetto or chrome://tracing): its
// serve lifecycle stream, its scheduler stream, and its per-rank phase
// streams. Safe from any goroutine; the recorder snapshots events
// emitted so far, so a running job yields a partial timeline.
func (sv *Server) WriteTimeline(w io.Writer, id int) error {
	info, ok := sv.Job(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return sv.ses.writeTimeline(w, info.Name)
}

// writeTimeline is the session half, shared with replay-driven tests.
func (ses *session) writeTimeline(w io.Writer, name string) error {
	r := ses.cl.Obs
	if !r.Enabled() {
		return ErrNoRecorder
	}
	return r.WriteChromeFiltered(w, obs.JobStreams(name))
}

// WriteFlight dumps the flight recorder's canonical event set as JSONL —
// the raw material the fleet timeline stitcher pulls from each shard.
func (sv *Server) WriteFlight(w io.Writer) error {
	r := sv.ses.cl.Obs
	if !r.Enabled() {
		return ErrNoRecorder
	}
	return r.WriteJSONL(w)
}

// Explain decomposes one job's end-to-end latency from the flight
// recorder: a gap-free phase breakdown (wait, launch, map, shuffle,
// sort, reduce, commit) along the critical rank, dominant-bottleneck
// attribution, and disturbance counters. Deterministic: the recording is
// a pure function of the arrival stream, so the same jobs explain
// byte-identically at any shard count and kernel backend.
func (sv *Server) Explain(id int) (obs.Explanation, error) {
	info, ok := sv.Job(id)
	if !ok {
		return obs.Explanation{}, fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	return sv.ses.explain(info.Name)
}

// explain is the session half, shared with replay-driven tests.
func (ses *session) explain(name string) (obs.Explanation, error) {
	r := ses.cl.Obs
	if !r.Enabled() {
		return obs.Explanation{}, ErrNoRecorder
	}
	return obs.ExplainJob(r.Canonical(), name), nil
}

// Recorder exposes the server's flight recorder (nil when not
// configured), for exports beyond the built-in endpoints.
func (sv *Server) Recorder() *obs.Recorder { return sv.ses.cl.Obs }
