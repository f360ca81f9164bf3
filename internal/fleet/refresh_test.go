package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// checkTable asserts the fleet table's keying: fleet ids run 0..n-1,
// every job holds a non-empty tag, and byTag maps each tag to exactly
// one job.
func checkTable(t *testing.T, rt *Router) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.byTag) != len(rt.jobs) {
		t.Fatalf("%d jobs under %d tags", len(rt.jobs), len(rt.byTag))
	}
	for i, j := range rt.jobs {
		if j.ID != i || j.Tag == "" || rt.byTag[j.Tag] != j {
			t.Fatalf("job %d: id %d, tag %q, byTag holds %+v", i, j.ID, j.Tag, rt.byTag[j.Tag])
		}
	}
}

// FuzzRefresh serves arbitrary bytes as a shard's GET /jobs reply, the
// router's widest input from outside, read on every probe tick. refresh
// must never panic; an undecodable reply must leave the table unchanged;
// what it adopts must keep the table keyed one job per tag; a second
// refresh must adopt nothing; and a fresh submission must get a tag no
// adopted job holds. The seeds are in testdata/fuzz/FuzzRefresh.
func FuzzRefresh(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte) {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) { w.Write(reply) })
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.JobInfo{ID: -1, Status: "queued"})
		})
		hs := httptest.NewServer(mux)
		defer hs.Close()
		rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: hs.URL}}, Logf: quiet})
		if err != nil {
			t.Fatalf("New: %v", err)
		}

		rt.refresh()
		n := len(rt.Jobs())
		var infos []serve.JobInfo
		if err := json.NewDecoder(bytes.NewReader(reply)).Decode(&infos); err != nil && n != 0 {
			t.Fatalf("an undecodable reply (%v) adopted %d jobs", err, n)
		}
		checkTable(t, rt)
		rt.refresh()
		if again := len(rt.Jobs()); again != n {
			t.Fatalf("second refresh adopted %d more jobs", again-n)
		}

		st := rt.Submit(serve.Request{Tenant: "ana", Kind: "wo"})
		if st.Code != http.StatusAccepted {
			t.Fatalf("fresh submit: status %d (%s)", st.Code, st.Err)
		}
		for _, j := range rt.Jobs()[:n] {
			if j.Tag == st.Job.Tag {
				t.Fatalf("fresh tag %q is adopted job %d's", st.Job.Tag, j.ID)
			}
		}
		checkTable(t, rt)
	})
}

// TestFreshTagsSkipAdoptedTags: adoption used to move the fresh-tag
// counter past the largest adopted "f<n>", so adopting f<MaxInt64>
// wrapped it to f<MinInt64> — a tag the shard also held — and two jobs
// shared one table entry.
func TestFreshTagsSkipAdoptedTags(t *testing.T) {
	s := newStubShard(t)
	s.jobs = []serve.JobInfo{
		{ID: 10, Tenant: "ana", Kind: "wo", Tag: "f0", Status: "queued"},
		{ID: 11, Tenant: "ana", Kind: "wo", Tag: "f-9223372036854775808", Status: "queued"},
		{ID: 12, Tenant: "ana", Kind: "wo", Tag: "f9223372036854775807", Status: "queued"},
	}
	rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: s.hs.URL}}, Logf: quiet})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rt.refresh()
	for i := 0; i < 2; i++ {
		if st := rt.Submit(serve.Request{Tenant: "ana", Kind: "wo"}); st.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, st.Code, st.Err)
		}
	}
	if n := len(rt.Jobs()); n != 5 {
		t.Fatalf("%d jobs, want 3 adopted and 2 fresh", n)
	}
	checkTable(t, rt)
}

// TestSubmitRefusesATagInUse: tags key the fleet table, so a submission
// under a tag the table already holds answers 409. It used to be
// accepted and take over the tag's entry: the first job then never left
// "running" in the router's view, though its shard finished it.
func TestSubmitRefusesATagInUse(t *testing.T) {
	shard := newTestShard(t)
	defer shard.hs.Close()
	defer shard.sv.Drain()
	rt, err := New(Config{Shards: []Shard{{ID: "s0", URL: shard.hs.URL}}, Logf: quiet})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := NewHandler(rt, HandlerConfig{Logf: quiet})
	body, _ := json.Marshal(serve.Request{Tenant: "ana", Kind: "wo",
		Params: serve.Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}, Tag: "x"})
	for i, want := range []int{http.StatusAccepted, http.StatusConflict} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("submission %d under tag x: status %d, want %d: %s", i, rec.Code, want, rec.Body)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		rt.refresh()
		if j, _ := rt.Job(0); j.State == "done" {
			if j.Digest == "" {
				t.Fatalf("job 0 done without its digest: %+v", j)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 0 never read done: %+v", rt.Jobs())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := len(rt.Jobs()); n != 1 {
		t.Fatalf("%d fleet jobs, want the one accepted", n)
	}
}
