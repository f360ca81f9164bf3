package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// The flight recorder's contract, proven end to end: recording must not
// perturb the simulation (every rendered report is byte-identical with
// and without it — TestRecordingReachesEveryExperiment walks the registry
// for that), and the recording is byte-identical across kernel-execution
// backends (identity.sum's multijob -trace cells).

// traceOpts keeps the recording runs cheap enough for CI.
func traceOpts() Options { return Options{PhysBudget: 2048, Seed: 1} }

func TestTracingDoesNotPerturbRunTrace(t *testing.T) {
	o := traceOpts()
	_, plain, err := Run("wo", 4<<20, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Obs = obs.New()
	_, traced, err := Run("wo", 4<<20, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != traced.String() {
		t.Errorf("golden Trace.String differs with tracing on:\n--- off\n%s\n--- on\n%s",
			plain.String(), traced.String())
	}
}

func TestChromeExportAndSummary(t *testing.T) {
	o := traceOpts()
	o.Obs = obs.New()
	wall, _, err := Run("sio", 8<<20, 4, o)
	if err != nil {
		t.Fatal(err)
	}

	// The Chrome export must be one valid JSON document in trace-event
	// "JSON object format".
	var buf bytes.Buffer
	if err := o.Obs.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}
	var metas, spans int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			spans++
		}
	}
	if metas < 2 || spans == 0 {
		t.Errorf("chrome export has %d metadata and %d span events, want >= 2 and > 0", metas, spans)
	}

	// The post-processed summary must reconstruct the run: makespan,
	// bounded per-stream utilization, per-phase percentiles over the 4
	// ranks, and a non-trivial critical path ending at the makespan.
	sum := obs.Summarize(o.Obs.Canonical())
	if sum.MakespanNs <= 0 {
		t.Fatalf("summary makespan %d, want > 0", sum.MakespanNs)
	}
	if got := sum.MakespanNs; got > int64(wall) {
		t.Errorf("summary makespan %d exceeds job wall %d", got, int64(wall))
	}
	if len(sum.Streams) == 0 {
		t.Fatal("summary has no streams")
	}
	var busy bool
	for _, s := range sum.Streams {
		if s.Util < 0 || s.Util > 1 {
			t.Errorf("stream %s utilization %f out of [0,1]", s.Stream, s.Util)
		}
		if s.Util > 0 {
			busy = true
		}
	}
	if !busy {
		t.Error("no stream shows any utilization")
	}
	phases := map[string]obs.PhaseStats{}
	for _, p := range sum.Phases {
		phases[p.Kind] = p
	}
	for _, kind := range []string{"phase.map", "phase.shuffle", "phase.sort", "phase.reduce"} {
		p, ok := phases[kind]
		if !ok {
			t.Errorf("summary is missing %s", kind)
			continue
		}
		if p.Count != 4 {
			t.Errorf("%s count %d, want 4 (one per rank)", kind, p.Count)
		}
		if p.P50Ns > p.P95Ns || p.P95Ns > p.P99Ns {
			t.Errorf("%s percentiles not monotone: p50 %d p95 %d p99 %d", kind, p.P50Ns, p.P95Ns, p.P99Ns)
		}
	}
	if len(sum.Critical.Steps) == 0 {
		t.Fatal("critical path is empty")
	}
	if sum.Critical.EndNs != sum.MakespanNs {
		t.Errorf("critical path ends at %d, makespan %d", sum.Critical.EndNs, sum.MakespanNs)
	}
	if sum.String() == "" {
		t.Error("summary renders empty")
	}
}
