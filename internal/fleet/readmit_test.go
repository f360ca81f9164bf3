package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/des"
	"repro/internal/serve"
)

// These tests drive the probe loop's steps (probeAll, failover, refresh)
// by hand on a router that was never Started, so no outcome depends on the
// wall clock or on when a refresh tick lands.

// stubShard is a scripted shard. It decodes every POST /jobs exactly as a
// real shard does and answers 202 "queued" (or, once told to refuse, a
// terminal 429); GET /jobs answers with a scripted job table.
type stubShard struct {
	hs *httptest.Server

	mu     sync.Mutex
	posts  int // decoded submissions so far
	refuse bool
	retry  int             // the drain prediction a refusal carries (JobInfo.RetryAfter)
	jobs   []serve.JobInfo // the GET /jobs answer
}

func newStubShard(t *testing.T) *stubShard {
	t.Helper()
	s := &stubShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.posts++
		if s.refuse {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.JobInfo{Tag: req.Tag, Status: "rejected", Reason: "quota: tenant at its cap", RetryAfter: s.retry})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobInfo{ID: s.posts - 1, Tag: req.Tag, Status: "queued"})
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		json.NewEncoder(w).Encode(s.jobs)
	})
	s.hs = httptest.NewServer(mux)
	t.Cleanup(s.hs.Close)
	return s
}

// sloRequest is a submission using the SLO fields the fleet used to drop.
func sloRequest(seed int) serve.Request {
	return serve.Request{Tenant: "ana", Kind: "sio",
		Params:  serve.Params{"elements": 1 << 20, "gpus": 2, "seed": int64(seed)},
		MinGang: 2, Class: "interactive", Deadline: 10 * des.Second}
}

// TestFailoverKeepsSLOFields: a classed, deadlined job that is re-admitted
// because its shard died arrives on its new shard with the class and
// deadline its submitter sent. (The fleet record used
// to keep a hand-copied subset of the submission; PR 9's SLO fields never
// made it into the copy, so such a job came back as plain batch work.)
func TestFailoverKeepsSLOFields(t *testing.T) {
	t.Run("failover", func(t *testing.T) {
		shards := map[string]*testShard{"s0": newTestShard(t), "s1": newTestShard(t)}
		for _, s := range shards {
			defer s.sv.Drain()
			defer s.hs.Close()
		}
		rt, err := New(Config{
			Shards:     []Shard{{ID: "s0", URL: shards["s0"].hs.URL}, {ID: "s1", URL: shards["s1"].hs.URL}},
			LoadFactor: -1, // plain hashing: one tenant, one owner
			FailAfter:  2,
			Logf:       quiet,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rt.sleep = noSleep
		const n = 6
		for i := 0; i < n; i++ {
			if st := rt.Submit(sloRequest(i + 1)); st.Code != http.StatusAccepted {
				t.Fatalf("submit %d: status %d (%s)", i, st.Code, st.Err)
			}
		}
		owner, survivor := "s0", "s1"
		if rt.Jobs()[0].Shard == "s1" {
			owner, survivor = "s1", "s0"
		}
		shards[owner].hs.CloseClientConnections()
		shards[owner].hs.Close()

		var dead []string
		for i := 0; i < 2 && len(dead) == 0; i++ {
			dead = rt.probeAll()
		}
		if len(dead) != 1 || dead[0] != owner {
			t.Fatalf("probes declared %v dead, want [%s]", dead, owner)
		}
		// No refresh ran, so the router still reads all six as unfinished
		// and fails every one of them over.
		rt.failover(owner)
		if st := rt.Stats(); st.Failovers != n || st.Lost != 0 {
			t.Fatalf("failovers %d lost %d, want %d and 0", st.Failovers, st.Lost, n)
		}
		onSurvivor := make(map[string]serve.JobInfo)
		for _, info := range shards[survivor].sv.Jobs() {
			onSurvivor[info.Tag] = info
		}
		for _, j := range rt.Jobs() {
			info, ok := onSurvivor[j.Tag]
			if !ok || j.Shard != survivor {
				t.Fatalf("job %s not re-admitted on %s: %+v", j.Tag, survivor, j)
			}
			if info.Class != "interactive" || info.Deadline != 10*des.Second {
				t.Errorf("job %s re-admitted with class=%q deadline=%v, want interactive / 10s", j.Tag, info.Class, info.Deadline)
			}
		}
	})
}

// TestRecoverAdoptsSLOFields: a restarted router's refresh adopts the
// shards' tagged jobs; what a shard's record keeps of the submission
// (class, deadline, weight, MinGang, downgrade, the elastic opt-in) is
// adopted with it, so a later failover of an adopted job re-admits it as
// submitted, and a job adopted already done keeps its digest.
func TestRecoverAdoptsSLOFields(t *testing.T) {
	s := newStubShard(t)
	s.jobs = []serve.JobInfo{{ID: 3, Tenant: "ana", Kind: "wo", Tag: "f9", TraceID: "f9",
		Status: "done", Digest: 0xabc, HasDigest: true, Class: "interactive", Deadline: 10 * des.Second}}
	rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: s.hs.URL}}, Logf: quiet})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.refresh()
	jobs := rt.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("adopted %d jobs, want 1", len(jobs))
	}
	if j := jobs[0]; j.Tag != "f9" || j.ShardJob != 3 || j.Class != "interactive" || j.Deadline != 10*des.Second ||
		j.State != "done" || j.Digest != "0000000000000abc" {
		t.Fatalf("adopted record: %+v", j)
	}
	if st := rt.Submit(serve.Request{Tenant: "ana", Kind: "wo"}); st.Job.Tag == "" || st.Job.Tag == "f9" {
		t.Fatalf("fresh tag %q collides with the adopted f9", st.Job.Tag)
	}

	// Through a real shard's record, every submission field comes back.
	shard := newTestShard(t)
	defer shard.hs.Close()
	defer shard.sv.Drain()
	sub := serve.Request{Tenant: "ana", Kind: "sio",
		Params: serve.Params{"elements": 1 << 20, "gpus": 4, "seed": 1},
		Weight: 3, MinGang: 2, Class: "standard", Deadline: 10 * des.Second,
		Downgrade: true, Elastic: true, Tag: "f4", TraceID: "f4"}
	if _, err := shard.sv.Submit(sub); err != nil {
		t.Fatalf("shard Submit: %v", err)
	}
	rt, err = New(Config{Shards: []Shard{{ID: "s0", URL: shard.hs.URL}}, Logf: quiet})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.refresh()
	if jobs := rt.Jobs(); len(jobs) != 1 || !reflect.DeepEqual(jobs[0].Request, sub) {
		t.Fatalf("adopted %+v, want one job re-admitted as submitted: %+v", jobs, sub)
	}
}

// TestFrontDoorForwardsRetryAfter: when the owning shard sheds a
// submission, the front door's 429 carries that shard's cost-model drain
// prediction, not a constant. (It used to answer every 429 with
// "Retry-After: 1", discarding what postJob had already decoded.)
func TestFrontDoorForwardsRetryAfter(t *testing.T) {
	stub := newStubShard(t)
	stub.refuse, stub.retry = true, 37
	rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: stub.hs.URL}}, Logf: quiet})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.sleep = noSleep
	body, _ := json.Marshal(sloRequest(1))
	rec := httptest.NewRecorder()
	NewHandler(rt, HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "37" {
		t.Errorf("Retry-After %q, want the shard's prediction 37", got)
	}
}
