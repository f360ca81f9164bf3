package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/serve"
)

// quiet swallows router/handler diagnostics so tests can log after the
// harness finishes probing.
func quiet(string, ...any) {}

// noSleep replaces a router's retry sleep: tests read the retry schedule
// (Stats, or a recording stub) instead of spending it.
func noSleep(time.Duration) {}

// syncBuffer guards a trace buffer against the engine goroutine writing
// while a probe races; reads happen only after drain.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// testShard is one in-process gpmrd shard: a serving session behind the
// real HTTP handler, recording its arrival trace.
type testShard struct {
	sv    *serve.Server
	hs    *httptest.Server
	trace *syncBuffer
}

func newTestShard(t *testing.T) *testShard {
	t.Helper()
	trace := &syncBuffer{}
	sv, err := serve.Start(serve.Config{
		Cluster:     cluster.DefaultConfig(8),
		Policy:      sched.Policy{Kind: sched.WeightedFair},
		Catalog:     serve.DefaultCatalog(2048),
		MaxQueue:    -1, // unbounded: survivors must absorb failover re-admissions
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

// TestFleetFailoverDeterminism is the fleet's acceptance proof: three
// shards, jobs routed across tenants, one shard fail-stopped while it
// still owns unfinished work. Every admitted job must reach a terminal
// state (here: done — survivors have unbounded queues), and the
// survivors' drained fleet report must be byte-identical to a
// ReplayDir over their recorded traces.
func TestFleetFailoverDeterminism(t *testing.T) {
	shards := []*testShard{newTestShard(t), newTestShard(t), newTestShard(t)}
	cfg := Config{
		Shards: []Shard{
			{ID: "s0", URL: shards[0].hs.URL},
			{ID: "s1", URL: shards[1].hs.URL},
			{ID: "s2", URL: shards[2].hs.URL},
		},
		LoadFactor:    -1, // plain hashing: tenant→shard is fixed, so the kill is deterministic
		ProbeInterval: 20 * time.Millisecond,
		FailAfter:     2,
		Logf:          quiet,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.sleep = noSleep
	rt.Start()

	submit := func(tenant string, i int) SubmitStatus {
		t.Helper()
		st := rt.Submit(serve.Request{Tenant: tenant, Kind: "wo",
			Params: serve.Params{"bytes": 1 << 20, "gpus": 2, "seed": int64(i + 1)}})
		if st.Code != http.StatusAccepted {
			t.Fatalf("submit %s/%d: status %d (%s)", tenant, i, st.Code, st.Err)
		}
		return st
	}
	tenants := []string{"ana", "bo", "cy", "dan", "eve", "fay"}
	n := 0
	for i, tn := range tenants {
		submit(tn, i)
		n++
	}

	// Pick the victim: the shard owning the last submitted job, then keep
	// feeding its tenant until the shard provably holds unfinished work
	// at the moment we kill it — that forces a real failover.
	jobs := rt.Jobs()
	victimID := jobs[len(jobs)-1].Shard
	victimTenant := jobs[len(jobs)-1].Tenant
	var victim *testShard
	for i, s := range cfg.Shards {
		if s.ID == victimID {
			victim = shards[i]
		}
	}
	if victim == nil {
		t.Fatalf("no shard %q", victimID)
	}
	killed := false
	for i := 0; i < 50 && !killed; i++ {
		submit(victimTenant, 100+i)
		n++
		s := victim.sv.Stats()
		if s.Queued+s.Running > 0 {
			victim.hs.CloseClientConnections()
			victim.hs.Close()
			killed = true
		}
	}
	if !killed {
		t.Fatal("victim shard never held unfinished work")
	}

	// The router must mark the victim down, re-admit its unfinished jobs
	// onto the survivors, and ride every job to a terminal state.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never settled: status %+v\njobs %+v", rt.Status(), rt.Jobs())
		}
		st := rt.Status()
		down := false
		for _, s := range st.Shards {
			if s.ID == victimID && s.State == shardDown {
				down = true
			}
		}
		allDone := true
		for _, j := range rt.Jobs() {
			if j.State != "done" {
				allDone = false
			}
		}
		if down && allDone {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := len(rt.Jobs()); got != n {
		t.Fatalf("fleet table has %d jobs, want %d", got, n)
	}
	stats := rt.Stats()
	if stats.Failovers == 0 {
		t.Fatal("shard died with unfinished work but no failovers were recorded")
	}
	if stats.Lost != 0 {
		t.Fatalf("%d jobs lost; every job must complete or be explicitly shed", stats.Lost)
	}

	// Live drain: merged report over the survivors.
	resps, err := rt.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(resps) != 2 {
		t.Fatalf("drained %d shards, want 2 survivors", len(resps))
	}
	var done int64
	for _, r := range resps {
		if r.Shard == victimID {
			t.Fatalf("dead shard %s answered the drain", victimID)
		}
		done += r.Done
	}
	// Jobs the victim finished before dying stay done in the fleet table
	// without appearing in any survivor's report; everything else must.
	victimDone := 0
	for _, j := range rt.Jobs() {
		if j.Shard == victimID {
			victimDone++
		}
	}
	if done != int64(n-victimDone) {
		t.Fatalf("survivors completed %d jobs, want %d (%d total, %d finished on the dead shard)",
			done, n-victimDone, n, victimDone)
	}
	liveMerged := Merge(resps)

	// Replay the survivors' traces from disk: byte-identical merge.
	dir := t.TempDir()
	for i, s := range cfg.Shards {
		if s.ID == victimID {
			continue // its partial trace died with it; its jobs live on in the survivors'
		}
		p := filepath.Join(dir, fmt.Sprintf("%s.jsonl", s.ID))
		if err := os.WriteFile(p, shards[i].trace.Bytes(), 0o644); err != nil {
			t.Fatalf("writing trace: %v", err)
		}
	}
	replayed, err := ReplayDir(dir, serve.ReplayOptions{})
	if err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	if liveMerged != replayed {
		t.Fatalf("live and replayed fleet reports differ:\n--- live ---\n%s--- replay ---\n%s", liveMerged, replayed)
	}

	// Second drain call returns the cached responses (idempotent).
	again, err := rt.Drain()
	if err != nil || Merge(again) != liveMerged {
		t.Fatalf("Drain is not idempotent (err %v)", err)
	}
	victim.sv.Drain() // release the dead shard's session
}

// TestRouterRetriesTransientErrors: a shard that throws two transient
// 500s before accepting still lands the job, with retries counted.
func TestRouterRetriesTransientErrors(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		n := posts
		mu.Unlock()
		if n <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobInfo{ID: 0, Tenant: "ana", Kind: "wo", Status: "queued"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "[]") })
	mux.HandleFunc("POST /fleet/register", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "{}") })
	hs := httptest.NewServer(mux)
	defer hs.Close()

	rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: hs.URL}}, Logf: quiet})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var slept []time.Duration
	rt.sleep = func(d time.Duration) { slept = append(slept, d) }
	st := rt.Submit(serve.Request{Tenant: "ana", Kind: "wo", Params: serve.Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}})
	if st.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", st.Code, st.Err)
	}
	if got := rt.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if want := []time.Duration{retryBackoff, 2 * retryBackoff}; !slices.Equal(slept, want) {
		t.Errorf("router slept %v between tries, want the doubling backoff %v", slept, want)
	}
}

// TestRouterReroutesAroundDeadShard: a tenant whose ring home refuses
// connections still gets placed — on the next ring candidate.
func TestRouterReroutesAroundDeadShard(t *testing.T) {
	alive := newTestShard(t)
	defer alive.hs.Close()
	defer alive.sv.Drain()
	deadURL := "http://127.0.0.1:1" // nothing listens on port 1

	rt, err := New(Config{
		Shards:     []Shard{{ID: "s0", URL: deadURL}, {ID: "s1", URL: alive.hs.URL}},
		LoadFactor: -1,
		Logf:       quiet,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.sleep = noSleep
	// Find a tenant whose plain-hash home is the dead shard.
	ring, err := NewRing([]string{"s0", "s1"}, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	tenant := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("t%d", i)
		if home, _ := ring.Pick(cand, eligibleZero("s0", "s1"), -1); home == "s0" {
			tenant = cand
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant hashes to s0")
	}
	st := rt.Submit(serve.Request{Tenant: tenant, Kind: "wo", Params: serve.Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}})
	if st.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", st.Code, st.Err)
	}
	if st.Job.Shard != "s1" {
		t.Fatalf("job landed on %s, want the live shard s1", st.Job.Shard)
	}
	if got := rt.Stats().Reroutes; got == 0 {
		t.Fatal("no reroute recorded for a dead ring home")
	}
}

// TestConcurrentFleetDrainsShareOneAnswer: fleet drain handshakes racing
// each other all get the one merged report, and OnDrain fires once (it
// closes a channel, so a second call would panic).
func TestConcurrentFleetDrainsShareOneAnswer(t *testing.T) {
	shard := newTestShard(t)
	defer shard.hs.Close()
	rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: shard.hs.URL}}, LoadFactor: -1, Logf: quiet})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	drained := make(chan struct{})
	fh := httptest.NewServer(NewHandler(rt, HandlerConfig{OnDrain: func() { close(drained) }, Logf: quiet}))
	defer fh.Close()
	bodies := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(fh.URL+"/drain", "application/json", nil)
			if err != nil {
				t.Errorf("drain %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("drain %d: status %d", i, resp.StatusCode)
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if len(b) == 0 || !bytes.Equal(b, bodies[0]) {
			t.Fatalf("drain %d answered %q, drain 0 %q", i, b, bodies[0])
		}
	}
	<-drained
}

// TestMergeOrderAndSummary pins the merged-report shape: banners sorted
// by shard id, summary line over the summed counters.
func TestMergeOrderAndSummary(t *testing.T) {
	got := Merge([]serve.DrainResponse{
		{Shard: "s1", Epoch: 2, Submitted: 3, Done: 2, Failed: 1, Report: "r1\n"},
		{Shard: "s0", Epoch: 2, Submitted: 4, Done: 4, Report: "r0\n"},
	})
	want := "=== shard s0 epoch 2 ===\nr0\n=== shard s1 epoch 2 ===\nr1\n" +
		"fleet: 2 shards  7 submitted  6 done  1 failed  0 cancelled  0 rejected\n"
	if got != want {
		t.Fatalf("merge mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRouterHonorsRetryAfter: a shard shedding with a Retry-After drain
// prediction gets retried on that schedule — the hint overrides the
// exponential backoff, capped at retryAfterCap — and the submission
// still lands on the same shard once the queue opens up. The same cap
// governs a transient 5xx carrying the header. The test reads the sleep
// the router asked for, not a wall-clock gap.
func TestRouterHonorsRetryAfter(t *testing.T) {
	run := func(t *testing.T, firstAnswer func(w http.ResponseWriter)) {
		var mu sync.Mutex
		posts := 0
		mux := http.NewServeMux()
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			posts++
			n := posts
			mu.Unlock()
			if n == 1 {
				// Advertise a drain far beyond the cap: the router must
				// wait capped, not the full hint, and not the backoff.
				w.Header().Set("Retry-After", "7")
				firstAnswer(w)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.JobInfo{ID: 0, Tenant: "ana", Kind: "wo", Status: "queued"})
		})
		hs := httptest.NewServer(mux)
		defer hs.Close()

		rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: hs.URL}}, Logf: quiet})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var slept []time.Duration
		rt.sleep = func(d time.Duration) { slept = append(slept, d) }
		st := rt.Submit(serve.Request{Tenant: "ana", Kind: "wo", Params: serve.Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}})
		if st.Code != http.StatusAccepted {
			t.Fatalf("submit: status %d (%s)", st.Code, st.Err)
		}
		if st.Job.Shard != "s0" {
			t.Fatalf("job landed on %q, want the hinting shard s0", st.Job.Shard)
		}
		mu.Lock()
		defer mu.Unlock()
		if posts != 2 {
			t.Fatalf("shard saw %d posts, want 2", posts)
		}
		if want := []time.Duration{2 * time.Second}; !slices.Equal(slept, want) {
			t.Errorf("router slept %v before its retry, want the 7s hint capped to %v", slept, want)
		}
	}
	t.Run("429", func(t *testing.T) {
		run(t, func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.JobInfo{Status: "rejected", Reason: "queue full (shed)"})
		})
	})
	t.Run("5xx", func(t *testing.T) {
		run(t, func(w http.ResponseWriter) {
			http.Error(w, "transient", http.StatusInternalServerError)
		})
	})
}

// TestUnplacedJobAnswersConflict: a job no live shard could take has no
// shard to ask, so its reads and DELETE answer 409 naming its state and
// reason, as gpmrd does for a job without output. They used to answer 502
// "job 0's shard  is down", blaming a shard with no name.
func TestUnplacedJobAnswersConflict(t *testing.T) {
	rt, err := New(Config{
		Shards: []Shard{{ID: "s0", URL: "http://127.0.0.1:1"}}, // nothing listens on port 1
		Logf:   quiet,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.sleep = noSleep
	if st := rt.Submit(serve.Request{Tenant: "ana", Kind: "wo"}); st.Code != http.StatusServiceUnavailable || st.Job.Shard != "" {
		t.Fatalf("submit: status %d on shard %q, want 503 and no shard", st.Code, st.Job.Shard)
	}
	h := NewHandler(rt, HandlerConfig{Logf: quiet})
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/0/output"},
		{http.MethodGet, "/jobs/0/timeline"},
		{http.MethodGet, "/jobs/0/explain"},
		{http.MethodDelete, "/jobs/0"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		body := rec.Body.String()
		if rec.Code != http.StatusConflict || !strings.Contains(body, "rejected") || !strings.Contains(body, "no live shard") {
			t.Errorf("%s %s: status %d %s, want 409 naming state rejected and its reason", c.method, c.path, rec.Code, body)
		}
	}
}

// TestNewRejectsBadLoadFactor: a load factor under which bounded-load
// routing cannot work — NaN, ±Inf, or 0 < c < 1, where every shard sits at
// its bound — is refused by name, so gpmrfleet exits instead of quietly
// routing least-loaded. 0 (the default), negative (plain hashing) and
// c >= 1 are accepted.
func TestNewRejectsBadLoadFactor(t *testing.T) {
	shards := []Shard{{ID: "s0", URL: "http://127.0.0.1:1"}}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5, 0.999} {
		_, err := New(Config{Shards: shards, LoadFactor: c})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(c)) {
			t.Errorf("LoadFactor %v: err %v, want a rejection naming the value", c, err)
		}
	}
	for _, c := range []float64{0, -1, 1, 1.25, 1e300} {
		if _, err := New(Config{Shards: shards, LoadFactor: c}); err != nil {
			t.Errorf("LoadFactor %v: %v", c, err)
		}
	}
}
