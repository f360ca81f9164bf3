package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// newRecordingShard is newTestShard with the flight recorder on: the
// shard records its arrival trace for replay and serves GET /flight
// for the live stitch.
func newRecordingShard(t *testing.T) *testShard {
	t.Helper()
	trace := &syncBuffer{}
	cc := cluster.DefaultConfig(8)
	cc.Obs = obs.New()
	sv, err := serve.Start(serve.Config{
		Cluster:     cc,
		Policy:      sched.Policy{Kind: sched.WeightedFair},
		Catalog:     serve.DefaultCatalog(2048),
		MaxQueue:    -1,
		TimeScale:   20,
		TraceW:      trace,
		KeepOutputs: 4,
	})
	if err != nil {
		t.Fatalf("serve.Start: %v", err)
	}
	hs := httptest.NewServer(serve.NewHandler(sv, serve.HandlerConfig{Logf: quiet}))
	return &testShard{sv: sv, hs: hs, trace: trace}
}

// settleFleet waits until every fleet job reached a terminal state.
func settleFleet(t *testing.T, rt *Router) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never settled: jobs %+v", rt.Jobs())
		}
		allDone := true
		for _, j := range rt.Jobs() {
			if j.State != "done" {
				allDone = false
			}
		}
		if allDone {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStitchedTimelineLiveMatchesReplay is the tracing tentpole's
// acceptance proof: the live stitched fleet timeline (router recording
// + every shard's flight recording fetched over /flight) must be
// byte-identical to the offline stitch of the same run's trace
// directory (shard arrival traces replayed + router.obs read back).
// It also pins the causal-ID contract (an unstamped submission adopts
// its fleet tag) and the explain/timeline HTTP surface.
func TestStitchedTimelineLiveMatchesReplay(t *testing.T) {
	shards := []*testShard{newRecordingShard(t), newRecordingShard(t)}
	cfg := Config{
		Shards: []Shard{
			{ID: "s0", URL: shards[0].hs.URL},
			{ID: "s1", URL: shards[1].hs.URL},
		},
		LoadFactor:    -1,
		ProbeInterval: 20 * time.Millisecond,
		FailAfter:     2,
		Logf:          quiet,
		Obs:           obs.New(),
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.sleep = noSleep
	rt.Start()

	// Submit until both shards own work (plain hashing is deterministic,
	// but which tenants land where is an implementation detail).
	owned := map[string]bool{}
	for i, tn := range []string{"ana", "bo", "cy", "dan", "eve", "fay", "gil", "hal", "ira", "joy"} {
		st := rt.Submit(serve.Request{Tenant: tn, Kind: "wo",
			Params: serve.Params{"bytes": 1 << 20, "gpus": 2, "seed": int64(i + 1)}})
		if st.Code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d (%s)", tn, st.Code, st.Err)
		}
		if st.Job.TraceID == "" || st.Job.TraceID != st.Job.Tag {
			t.Errorf("submit %s: TraceID %q, want the fleet tag %q", tn, st.Job.TraceID, st.Job.Tag)
		}
		owned[st.Job.Shard] = true
		if i >= 1 && len(owned) == len(cfg.Shards) {
			break
		}
	}
	if len(owned) != len(cfg.Shards) {
		t.Fatalf("hashing sent every tenant to %v; widen the tenant pool", owned)
	}
	settleFleet(t, rt)

	// Live stitch: must be valid Chrome trace JSON with router events in.
	var live bytes.Buffer
	if err := rt.WriteTimeline(&live); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(live.Bytes(), &chrome); err != nil {
		t.Fatalf("live timeline is not valid JSON: %v", err)
	}
	groups := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev["name"] == "process_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				groups[args["name"].(string)] = true
			}
		}
	}
	wantGroups := []string{"fleet"}
	for id := range owned {
		wantGroups = append(wantGroups, id)
	}
	for _, want := range wantGroups {
		if !groups[want] {
			t.Errorf("live timeline missing lane group %q (have %v)", want, groups)
		}
	}

	// The HTTP surface: /timeline re-renders the same bytes on a settled
	// fleet, and /jobs/{id}/explain wraps the shard's breakdown with the
	// router hop record in both JSON and text renderings.
	fh := httptest.NewServer(NewHandler(rt, HandlerConfig{Logf: quiet}))
	defer fh.Close()
	get := func(path string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(fh.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	code, _, body := get("/timeline")
	if code != http.StatusOK {
		t.Fatalf("/timeline: status %d", code)
	}
	if !bytes.Equal(body, live.Bytes()) {
		t.Error("/timeline differs from WriteTimeline on a settled fleet")
	}

	code, ctype, body := get("/jobs/0/explain")
	if code != http.StatusOK {
		t.Fatalf("/jobs/0/explain: status %d: %s", code, body)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/jobs/0/explain content type %q", ctype)
	}
	var wrapped struct {
		Fleet   FleetJob        `json:"fleet"`
		Explain obs.Explanation `json:"explain"`
	}
	if err := json.Unmarshal(body, &wrapped); err != nil {
		t.Fatalf("/jobs/0/explain: %v\n%s", err, body)
	}
	if wrapped.Fleet.ID != 0 || wrapped.Fleet.TraceID == "" {
		t.Errorf("/jobs/0/explain fleet record: %+v", wrapped.Fleet)
	}
	if wrapped.Explain.TraceID != wrapped.Fleet.TraceID {
		t.Errorf("explain trace %q != fleet trace %q", wrapped.Explain.TraceID, wrapped.Fleet.TraceID)
	}
	var sum int64
	for _, p := range wrapped.Explain.Phases {
		sum += p.DurNs
	}
	if len(wrapped.Explain.Phases) == 0 || sum != wrapped.Explain.LatencyNs {
		t.Errorf("explain phases sum to %d, latency %d: %+v", sum, wrapped.Explain.LatencyNs, wrapped.Explain)
	}

	code, ctype, body = get("/jobs/0/explain?format=text")
	if code != http.StatusOK {
		t.Fatalf("/jobs/0/explain?format=text: status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("text explain content type %q", ctype)
	}
	if !strings.HasPrefix(string(body), "fleet: job 0  ") {
		t.Errorf("text explain missing fleet hop line:\n%s", body)
	}
	if !strings.Contains(string(body), "bottleneck") {
		t.Errorf("text explain missing shard breakdown:\n%s", body)
	}

	if code, _, _ := get("/jobs/99/explain"); code != http.StatusNotFound {
		t.Errorf("/jobs/99/explain: status %d, want 404", code)
	}

	// Drain flushes the shard arrival traces; the settled router's own
	// recording is unchanged by it (a successful drain emits no events).
	if _, err := rt.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Offline stitch of the run's trace directory: byte-identical to the
	// live timeline captured before the drain.
	dir := t.TempDir()
	for i, s := range cfg.Shards {
		tb := shards[i].trace.Bytes()
		if len(tb) == 0 {
			continue // a shard that saw no arrivals has no trace to replay
		}
		p := filepath.Join(dir, s.ID+".jsonl")
		if err := os.WriteFile(p, tb, 0o644); err != nil {
			t.Fatalf("writing trace: %v", err)
		}
	}
	var robs bytes.Buffer
	if err := rt.WriteObs(&robs); err != nil {
		t.Fatalf("WriteObs: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, RouterObsName), robs.Bytes(), 0o644); err != nil {
		t.Fatalf("writing router obs: %v", err)
	}
	var off bytes.Buffer
	if err := WriteStitchedDir(&off, dir); err != nil {
		t.Fatalf("WriteStitchedDir: %v", err)
	}
	if !bytes.Equal(live.Bytes(), off.Bytes()) {
		os.WriteFile("/tmp/stitch_live.json", live.Bytes(), 0o644)
		os.WriteFile("/tmp/stitch_off.json", off.Bytes(), 0o644)
		t.Fatalf("live and offline stitched timelines differ (dumped to /tmp/stitch_{live,off}.json)")
	}

	// Without router.obs the offline stitch still works — shards only,
	// exactly like a run whose router record was lost.
	if err := os.Remove(filepath.Join(dir, RouterObsName)); err != nil {
		t.Fatal(err)
	}
	evs, err := StitchDir(dir, serve.ReplayOptions{})
	if err != nil {
		t.Fatalf("StitchDir without router.obs: %v", err)
	}
	for _, e := range evs {
		if StitchGroup(e.Stream) == "fleet" {
			t.Fatalf("router stream %q present after router.obs removed", e.Stream)
		}
	}
}
