package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/des"
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
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("trace differs with tracing on:\n--- off\n%+v\n--- on\n%+v", plain, traced)
	}
}

// TestChromeExportAndSummary checks the two readings of one recorded job:
// the Chrome export, and explain's summary of the job, which must agree
// with the run's own trace.
func TestChromeExportAndSummary(t *testing.T) {
	o := traceOpts()
	o.Obs = obs.New()
	_, tr, err := Run("sio", 8<<20, 4, o)
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

	// Explain must reconstruct the run: the bare job's latency is the
	// wall time, its phases partition the latency, and its map, shuffle,
	// sort and reduce ends are the critical rank's RankTrace stamps.
	evs := o.Obs.Canonical()
	keys := obs.Jobs(evs)
	if len(keys) != 1 || keys[0] != (obs.JobKey{Name: "sio"}) {
		t.Fatalf("recorded jobs %+v, want the one bare sio job", keys)
	}
	ex := obs.Explain(evs, keys[0])
	if ex.LatencyNs != int64(tr.Wall) {
		t.Errorf("explained latency %d, wall %d", ex.LatencyNs, int64(tr.Wall))
	}
	ends := map[string]int64{}
	var sum int64
	cur := ex.ArrivalNs
	for _, p := range ex.Phases {
		if p.StartNs != cur {
			t.Errorf("phase %s starts at %d, the previous one ends at %d", p.Name, p.StartNs, cur)
		}
		cur = p.EndNs
		sum += p.DurNs
		ends[p.Name] = p.EndNs
	}
	if sum != ex.LatencyNs || cur != ex.FinishNs {
		t.Errorf("phases sum to %d and end at %d; latency %d, finish %d", sum, cur, ex.LatencyNs, ex.FinishNs)
	}
	k, err := strconv.Atoi(strings.TrimPrefix(ex.CriticalRank, "sio/r"))
	if err != nil || k >= len(tr.Ranks) {
		t.Fatalf("critical rank %q is not one of %d ranks", ex.CriticalRank, len(tr.Ranks))
	}
	rt := tr.Ranks[k]
	for _, c := range []struct {
		phase string
		stamp des.Time
	}{{"map", rt.MapDone}, {"shuffle", rt.ShuffleDone}, {"sort", rt.SortDone}, {"reduce", rt.ReduceDone}} {
		if ends[c.phase] != int64(c.stamp) {
			t.Errorf("%s ends at %d, rank %d's stamp is %d", c.phase, ends[c.phase], k, int64(c.stamp))
		}
	}
}
