package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// plannedChunks is the length of a catalog job's chunk list.
func plannedChunks(t *testing.T, r core.Runnable) int {
	t.Helper()
	switch j := r.(type) {
	case *core.Scheduled[uint32]:
		return len(j.Job.Chunks)
	case *core.Scheduled[float64]:
		return len(j.Job.Chunks)
	}
	t.Fatalf("unexpected runnable %T", r)
	return 0
}

// TestCatalogBoundsPlannedWork: a build at each of DefaultCatalog's caps
// succeeds and plans no more than maxChunks chunks; one step past the cap
// is rejected with an error naming the parameter. (The dictionary used to
// be accepted up to 2^24 words, whose minimal perfect hash can fail to
// build and then panicked the daemon; centers up to 2^20; and any chunk
// count, one allocation per chunk on the engine goroutine.)
func TestCatalogBoundsPlannedWork(t *testing.T) {
	cat := DefaultCatalog(4096)
	for _, c := range []struct {
		kind, key string
		at, past  Params
	}{
		{"wo", "dict", Params{"dict": maxDict}, Params{"dict": maxDict + 1}},
		{"wo", "bytes", Params{"bytes": maxData}, Params{"bytes": maxData + 1}},
		{"kmc", "centers", Params{"centers": maxCenters}, Params{"centers": maxCenters + 1}},
		{"kmc", "points", Params{"points": maxChunks * kmcChunk}, Params{"points": maxChunks*kmcChunk + 1}},
		{"sio", "chunkcap", Params{"elements": maxChunks, "chunkcap": 1}, Params{"elements": maxChunks + 1, "chunkcap": 1}},
		{"sio", "elements", Params{"elements": maxData}, Params{"elements": maxData + 1}},
	} {
		r, err := cat.Build(c.kind, "at-cap", c.at)
		if err != nil {
			t.Errorf("%s %v: %v", c.kind, c.at, err)
		} else if n := plannedChunks(t, r); n > maxChunks {
			t.Errorf("%s %v plans %d chunks, over the cap of %d", c.kind, c.at, n, maxChunks)
		}
		if _, err := cat.Build(c.kind, "past-cap", c.past); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.key)) {
			t.Errorf("%s %v: err %v, want a rejection naming %q", c.kind, c.past, err, c.key)
		}
	}
}

// TestHostileBodiesLeaveTheDaemonServing posts each body that used to
// crash gpmrd or tie up its engine goroutine to a started Server: each
// must get a 400 naming the parameter, after which /healthz still answers
// and an ordinary job still reaches done. (The oversized dictionary
// panicked the injected arrival process and took the whole daemon down;
// behind gpmrfleet the rerouted body killed every shard in turn.)
func TestHostileBodiesLeaveTheDaemonServing(t *testing.T) {
	for name, c := range map[string]struct{ body, key string }{
		"wo_dict":          {`{"tenant":"t","kind":"wo","params":{"dict":4194304}}`, "dict"},
		"sio_chunkcap":     {`{"tenant":"t","kind":"sio","params":{"elements":1099511627776,"chunkcap":1}}`, "chunkcap"},
		"sio_past_cap":     {`{"tenant":"t","kind":"sio","params":{"elements":131072,"chunkcap":1}}`, "chunkcap"},
		"kmc_centers":      {`{"tenant":"t","kind":"kmc","params":{"centers":1048576}}`, "centers"},
		"kmc_points":       {`{"tenant":"t","kind":"kmc","params":{"points":1099511627776}}`, "points"},
		"wo_dict_past_cap": {`{"tenant":"t","kind":"wo","params":{"dict":131072}}`, "dict"},
	} {
		t.Run(name, func(t *testing.T) {
			sv := startTestServer(t, Config{})
			defer sv.Drain()
			hs := httptest.NewServer(NewHandler(sv, HandlerConfig{Logf: quietLogf}))
			defer hs.Close()

			resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			var info JobInfo
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(info.Reason, fmt.Sprintf("%q", c.key)) {
				t.Fatalf("status %d, reason %q (%v); want 400 naming %q", resp.StatusCode, info.Reason, err, c.key)
			}
			if resp, _ := get(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz: status %d after the rejection", resp.StatusCode)
			}
			resp, out := postJSON(t, hs.URL+"/jobs", Request{Tenant: "t", Kind: "wo", Params: Params{"bytes": 1 << 20, "seed": 1}})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ordinary job: status %d: %s", resp.StatusCode, out)
			}
			if err := json.Unmarshal(out, &info); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
				_, out := get(t, fmt.Sprintf("%s/jobs/%d", hs.URL, info.ID))
				if err := json.Unmarshal(out, &info); err != nil {
					t.Fatal(err)
				}
				if info.Status == "done" {
					break
				}
				if info.Status != "queued" && info.Status != "running" || time.Now().After(deadline) {
					t.Fatalf("ordinary job is %s (%s), want done", info.Status, info.Reason)
				}
			}
		})
	}
}

// FuzzSubmitBody feeds POST /jobs bodies through what the handler does
// with them: decode a Request, then build it from DefaultCatalog. It must
// never panic; a decoded Request — which is also the arrival trace's line
// — must survive a JSON round trip byte for byte; and a build that
// succeeds plans no more than maxChunks chunks. testdata/fuzz/FuzzSubmitBody
// holds one valid body per kind and the hostile shapes.
func FuzzSubmitBody(f *testing.F) {
	cat := DefaultCatalog(4096)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		line, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request does not encode: %v", err)
		}
		var back Request
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("encoded request %s does not decode: %v", line, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, line) {
			t.Fatalf("request does not round-trip:\n%s\n%s", line, again)
		}
		r, err := cat.Build(req.Kind, "fuzz", req.Params)
		if err != nil {
			return
		}
		if n := plannedChunks(t, r); n > maxChunks {
			t.Fatalf("%s plans %d chunks, over the cap of %d", body, n, maxChunks)
		}
	})
}
