package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sched"
)

// quietLogf swallows handler diagnostics (the tests provoke errors on
// purpose).
func quietLogf(string, ...any) {}

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Cluster.GPUs == 0 {
		cfg.Cluster = cluster.DefaultConfig(8)
	}
	if cfg.Policy.Kind == 0 {
		cfg.Policy = sched.Policy{Kind: sched.WeightedFair}
	}
	if cfg.Catalog == nil {
		cfg.Catalog = testCatalog()
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 20
	}
	sv, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return sv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, out
}

// TestHandlerLifecycle walks the full HTTP surface: submit, poll to
// done, retrieve the output, hit the error paths the timeline fix
// distinguishes (unknown job → 404, render failure → 500), then drain
// and verify the handshake's answers.
func TestHandlerLifecycle(t *testing.T) {
	sv := startTestServer(t, Config{KeepOutputs: 4})
	drained := make(chan struct{})
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{
		OnDrain: func() { close(drained) },
		Logf:    quietLogf,
	}))
	defer hs.Close()

	resp, body := postJSON(t, hs.URL+"/jobs", Request{
		Tenant: "ana", Kind: "wo", Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}, Tag: "f0",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("submit answer: %v", err)
	}
	if info.ID != 0 || info.Tag != "f0" {
		t.Fatalf("submit answer: %+v", info)
	}

	waitDrained(t, sv, 1)

	if resp, _ := get(t, fmt.Sprintf("%s/jobs/%d", hs.URL, info.ID)); resp.StatusCode != http.StatusOK {
		t.Fatalf("job record: status %d", resp.StatusCode)
	}
	resp, out := get(t, fmt.Sprintf("%s/jobs/%d/output", hs.URL, info.ID))
	if resp.StatusCode != http.StatusOK || len(out) == 0 {
		t.Fatalf("output: status %d, %d bytes", resp.StatusCode, len(out))
	}
	if resp, _ := get(t, hs.URL+"/jobs/99/output"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job output: status %d, want 404", resp.StatusCode)
	}

	// The timeline distinction: 404 is reserved for a job the service has
	// never heard of; a known job whose render fails (no recorder here)
	// is a 500, not a 404.
	if resp, _ := get(t, hs.URL+"/jobs/99/timeline"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job timeline: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, fmt.Sprintf("%s/jobs/%d/timeline", hs.URL, info.ID)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("render-failure timeline: status %d, want 500", resp.StatusCode)
	}

	if resp, _ := get(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	resp, body = postJSON(t, hs.URL+"/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	var dr DrainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("drain answer: %v", err)
	}
	if dr.Done != 1 || dr.Submitted != 1 || dr.Report == "" {
		t.Fatalf("drain answer: %+v", dr)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("OnDrain never fired")
	}

	// Drained service: healthz flips, submissions bounce, a second drain
	// returns the identical cached answer.
	if resp, _ := get(t, hs.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained healthz: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, hs.URL+"/jobs", Request{Tenant: "bo", Kind: "wo",
		Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": 2}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained submit: status %d, want 503", resp.StatusCode)
	}
	_, body2 := postJSON(t, hs.URL+"/drain", nil)
	if !bytes.Equal(body, body2) {
		t.Fatal("second drain answer differs from the first")
	}
}

// TestHandlerFleetRegister: the registration handshake stamps the trace
// header before any event is recorded, and refuses to re-stamp a
// different identity once the header is on disk.
func TestHandlerFleetRegister(t *testing.T) {
	var trace bytes.Buffer
	sv := startTestServer(t, Config{TraceW: &trace})
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{Logf: quietLogf}))
	defer hs.Close()

	if resp, body := postJSON(t, hs.URL+"/fleet/register", FleetRegistration{Shard: "s7", Epoch: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, hs.URL+"/jobs", Request{Tenant: "ana", Kind: "wo",
		Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitDrained(t, sv, 1)
	// The first arrival flushed the header; a conflicting identity must
	// now be refused.
	if resp, _ := postJSON(t, hs.URL+"/fleet/register", FleetRegistration{Shard: "s8", Epoch: 4}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting register: status %d, want 409", resp.StatusCode)
	}
	if _, err := sv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	tr, err := ReadTrace(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Header.Shard != "s7" || tr.Header.Epoch != 3 {
		t.Fatalf("trace header fleet identity = %q/%d, want s7/3", tr.Header.Shard, tr.Header.Epoch)
	}
}

// TestOutputRetentionEviction: KeepOutputs bounds the side table FIFO;
// an evicted output answers 409 (known job, output gone), not 404.
func TestOutputRetentionEviction(t *testing.T) {
	sv := startTestServer(t, Config{KeepOutputs: 1})
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{Logf: quietLogf}))
	defer hs.Close()

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, hs.URL+"/jobs", Request{Tenant: "ana", Kind: "wo",
			Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": int64(i + 1)}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		waitDrained(t, sv, int64(i+1))
	}
	if resp, _ := get(t, hs.URL+"/jobs/0/output"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("evicted output: status %d, want 409", resp.StatusCode)
	}
	resp, out := get(t, hs.URL+"/jobs/1/output")
	if resp.StatusCode != http.StatusOK || len(out) == 0 {
		t.Fatalf("retained output: status %d, %d bytes", resp.StatusCode, len(out))
	}
	sv.Drain()
}

// holdJob is placed like any job and then holds its gang until the
// engine drains: it never finishes, so every answer a later submission
// gets follows from admission alone, never from how far the live engine
// has run.
type holdJob struct{ name string }

func (j holdJob) RunName() string                                                        { return j.name }
func (j holdJob) GangWant() int                                                          { return 4 }
func (j holdJob) ValidateJob() error                                                     { return nil }
func (j holdJob) LaunchOn(*des.Engine, *cluster.Cluster, []int, func(*core.Trace)) error { return nil }
func (j holdJob) PreemptLaunch() bool                                                    { return false }
func (j holdJob) EstimateCost(*cluster.Cluster, int) des.Time                            { return des.Second }
func (j holdJob) OutputDigest() (uint64, bool)                                           { return 0, true }
func (j holdJob) RenderOutput(io.Writer) error                                           { return nil }

// TestSubmitStatusFollowsTheDecision pins the submit endpoint's status
// mapping: a reject that carries a retry hint (shed, quota) is a 429 with
// that hint as Retry-After; every other reject (invalid, SLO) is a 400.
func TestSubmitStatusFollowsTheDecision(t *testing.T) {
	cat := NewCatalog(testPhys)
	cat.Register("hold", Builder{Build: func(name string, _ Params) (core.Runnable, error) {
		return holdJob{name}, nil
	}})
	sv := startTestServer(t, Config{Cluster: cluster.DefaultConfig(4), Catalog: cat, MaxQueue: 2, Quota: 1})
	defer sv.Drain()
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{Logf: quietLogf}))
	defer hs.Close()

	for i, c := range []struct {
		req    Request
		code   int
		reason string
	}{
		{Request{Tenant: "a", Kind: "hold"}, http.StatusAccepted, ""},                    // holds all 4 ranks
		{Request{Tenant: "a", Kind: "hold"}, http.StatusTooManyRequests, "quota:"},       // a is at its cap
		{Request{Tenant: "e", Kind: "hold", Deadline: 1}, http.StatusBadRequest, "slo:"}, // predicted miss
		{Request{Tenant: "x", Kind: "nope"}, http.StatusBadRequest, "unknown job kind"},
		{Request{Tenant: "b", Kind: "hold"}, http.StatusAccepted, ""}, // waits, depth 1
		{Request{Tenant: "c", Kind: "hold"}, http.StatusAccepted, ""}, // waits, depth 2
		{Request{Tenant: "d", Kind: "hold"}, http.StatusTooManyRequests, "shed:"},
	} {
		resp, body := postJSON(t, hs.URL+"/jobs", c.req)
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatalf("submission %d: decoding %s: %v", i, body, err)
		}
		if resp.StatusCode != c.code || !strings.Contains(info.Reason, c.reason) {
			t.Fatalf("submission %d: status %d reason %q, want %d with %q", i, resp.StatusCode, info.Reason, c.code, c.reason)
		}
		retry := resp.Header.Get("Retry-After")
		switch {
		case c.code == http.StatusTooManyRequests && (info.RetryAfter < 1 || retry != fmt.Sprint(info.RetryAfter)):
			t.Errorf("submission %d: Retry-After %q, JobInfo.RetryAfter %d", i, retry, info.RetryAfter)
		case c.code != http.StatusTooManyRequests && retry != "":
			t.Errorf("submission %d: status %d carries Retry-After %q", i, c.code, retry)
		}
	}
}

// TestConcurrentDrainsShareOneAnswer: drain handshakes racing each other
// all get the one report, and OnDrain fires once (it closes a channel, so
// a second call would panic).
func TestConcurrentDrainsShareOneAnswer(t *testing.T) {
	sv := startTestServer(t, Config{})
	drained := make(chan struct{})
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{OnDrain: func() { close(drained) }, Logf: quietLogf}))
	defer hs.Close()
	bodies := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/drain", "application/json", nil)
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

// TestGracefulShutdownRace is the drain-correctness proof for the
// daemon's signal path: submissions racing a graceful shutdown either
// get a terminal HTTP answer (202/429/503) or never reach the server —
// a refused dial, or a connection the kernel had queued but the server
// had not accepted when the listener closed — never a reset on a
// connection the server took.
func TestGracefulShutdownRace(t *testing.T) {
	sv := startTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var accepted sync.Map // client address of every connection the server took
	srv := &http.Server{
		Handler: NewHandler(sv, HandlerConfig{Logf: quietLogf}),
		ConnState: func(c net.Conn, st http.ConnState) {
			if st == http.StateNew {
				accepted.Store(c.RemoteAddr().String(), true)
			}
		},
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Fresh connection per request: an error can then only be a dial
	// error, never a torn keep-alive.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	stopSubmitting := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var submitted int64
	var badStatus []int
	var badErrs []error
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopSubmitting:
					return
				default:
				}
				b, _ := json.Marshal(Request{Tenant: fmt.Sprintf("t%d", g), Kind: "wo",
					Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": int64(g*1000 + i + 1)}})
				resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(b))
				if err != nil {
					// Acceptable only if the server never took the connection:
					// the listener is gone, or closed over its backlog.
					var opErr *net.OpError
					unserved := errors.As(err, &opErr) && opErr.Op == "dial"
					if !unserved && opErr != nil && opErr.Source != nil {
						_, took := accepted.Load(opErr.Source.String())
						unserved = !took
					}
					if !unserved {
						mu.Lock()
						badErrs = append(badErrs, err)
						mu.Unlock()
					}
					return
				}
				_, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch {
				case rerr != nil:
					badErrs = append(badErrs, rerr)
				case resp.StatusCode == http.StatusAccepted:
					submitted++
				case resp.StatusCode == http.StatusTooManyRequests,
					resp.StatusCode == http.StatusServiceUnavailable:
					// Terminal backpressure answers: fine.
				default:
					badStatus = append(badStatus, resp.StatusCode)
				}
				mu.Unlock()
			}
		}(g)
	}

	time.Sleep(50 * time.Millisecond) // let submissions overlap the shutdown
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stopSubmitting)
	wg.Wait()

	if len(badErrs) > 0 {
		t.Fatalf("requests torn mid-flight: %v", badErrs)
	}
	if len(badStatus) > 0 {
		t.Fatalf("non-terminal statuses: %v", badStatus)
	}
	// Every accepted submission must still reach a terminal state through
	// the drain — acceptance is a promise.
	waitDrained(t, sv, submitted)
	rep, err := sv.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := rep.Stats.Done + rep.Stats.Failed + rep.Stats.Cancelled; got != submitted {
		t.Fatalf("%d accepted but %d terminal:\n%s", submitted, got, rep.String())
	}
	if submitted == 0 {
		t.Skip("no submission completed before shutdown; nothing proven this run")
	}
}

// TestCancelStatusCodes pins the cancel endpoint's 404/409 distinction:
// unknown job vs known-but-not-queued.
func TestCancelStatusCodes(t *testing.T) {
	sv := startTestServer(t, Config{})
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{Logf: quietLogf}))
	defer hs.Close()

	if resp, _ := postJSON(t, hs.URL+"/jobs", Request{Tenant: "ana", Kind: "wo",
		Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitDrained(t, sv, 1)

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/42", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/jobs/0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished job: status %d, want 409", resp.StatusCode)
	}
	sv.Drain()
}

// TestSubmitBodyDecodesEitherKeyCase: POST /jobs takes the documented
// lowercase keys and, equally, Go-cased keys ("Tenant", "MinGang",
// "TraceID") — what a router built before Request carried JSON tags
// marshals — so a mixed-version fleet keeps working. Both spellings must
// reach admission as the same Request; the arrival trace is the witness.
func TestSubmitBodyDecodesEitherKeyCase(t *testing.T) {
	want := Request{Tenant: "ana", Kind: "wo", Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": 1},
		Weight: 2, MinGang: 2, Class: "interactive", Deadline: 10 * des.Second,
		Downgrade: true, Elastic: true, Tag: "f7", TraceID: "trace-7"}
	bodies := []struct{ name, body string }{
		{"lowercase", `{"tenant":"ana","kind":"wo","params":{"bytes":1048576,"gpus":2,"seed":1},"weight":2,"minGang":2,
			"class":"interactive","deadline":10000000000,"downgrade":true,"elastic":true,"tag":"f7","traceId":"trace-7"}`},
		{"go-cased", `{"Tenant":"ana","Kind":"wo","Params":{"bytes":1048576,"gpus":2,"seed":1},"Weight":2,"MinGang":2,
			"Class":"interactive","Deadline":10000000000,"Downgrade":true,"Elastic":true,"Tag":"f7","TraceID":"trace-7"}`},
	}
	var rec bytes.Buffer
	sv := startTestServer(t, Config{TraceW: &rec})
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{Logf: quietLogf}))
	defer hs.Close()
	for _, b := range bodies {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(b.body))
		if err != nil {
			t.Fatalf("%s: POST: %v", b.name, err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %d: %s", b.name, resp.StatusCode, out)
		}
	}
	if _, err := sv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	tr, err := ReadTrace(&rec)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(tr.Events) != len(bodies) {
		t.Fatalf("trace holds %d events, want %d", len(tr.Events), len(bodies))
	}
	for i, b := range bodies {
		if got := tr.Events[i].Arrive.Request; !reflect.DeepEqual(got, want) {
			t.Errorf("%s body decoded to %+v, want %+v", b.name, got, want)
		}
	}
}
