package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/sched"
)

// TestSLOTraceRoundTrip: the SLO header switches and per-arrival SLO
// fields survive the JSONL round trip — and stay entirely absent from
// the encoding when unused, so pre-SLO traces are byte-unchanged.
func TestSLOTraceRoundTrip(t *testing.T) {
	h := Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 8, GPUsPerNode: 4,
		PhysBudget: 4096, Reserve: true, Preempt: true}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, h)
	w.Arrive(Arrival{Seq: 0, At: 5, Request: Request{Tenant: "a", Kind: "wo", Params: Params{"bytes": 1024},
		Class: "interactive", Deadline: 20 * des.Millisecond}})
	w.Arrive(Arrival{Seq: 1, At: 9, Request: Request{Tenant: "b", Kind: "kmc",
		Class: "standard", Deadline: 60 * des.Millisecond, Downgrade: true}})
	w.Arrive(Arrival{Seq: 2, At: 12, Request: Request{Tenant: "c", Kind: "sio", Elastic: true}})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !tr.Header.Reserve || !tr.Header.Preempt {
		t.Fatalf("header SLO switches mangled: %+v", tr.Header)
	}
	pol, err := tr.Header.policy()
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	if !pol.Reserve || !pol.Preempt {
		t.Fatalf("policy drops SLO switches: %+v", pol)
	}
	a := tr.Events[0].Arrive
	if a.Class != "interactive" || a.Deadline != 20*des.Millisecond {
		t.Fatalf("arrival 0 SLO fields mangled: %+v", a)
	}
	if b := tr.Events[1].Arrive; !b.Downgrade {
		t.Fatalf("arrival 1 lost Downgrade: %+v", b)
	}
	if c := tr.Events[2].Arrive; !c.Elastic {
		t.Fatalf("arrival 2 lost Elastic: %+v", c)
	}

	// Byte compatibility: an SLO-free trace must not mention any of the
	// new fields at all.
	var plain bytes.Buffer
	pw := NewTraceWriter(&plain, Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 8})
	pw.Arrive(Arrival{Seq: 0, At: 5, Request: Request{Tenant: "a", Kind: "wo"}})
	if err := pw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for _, frag := range []string{"reserve", "preempt", "elastic", "class", "deadline", "downgrade"} {
		if strings.Contains(plain.String(), frag) {
			t.Errorf("SLO-free trace encodes %q:\n%s", frag, plain.String())
		}
	}
}

// TestRetryAfterGrowsWithBacklog: a shed submission's Retry-After hint
// is the cost-model drain time of the queue it bounced off, so a deeper
// backlog must advertise a longer back-off — not the old hardcoded 1s.
func TestRetryAfterGrowsWithBacklog(t *testing.T) {
	ms := des.Millisecond
	sp := Params{"elements": 1 << 30, "gpus": 4, "seed": int64(1), "chunkcap": 16 << 20}
	shedRetry := func(maxQueue int) int {
		h := Header{Version: TraceVersion, Policy: "fifo-exclusive", GPUs: 4, GPUsPerNode: 4,
			MaxQueue: maxQueue, PhysBudget: testPhys}
		var evs []Event
		for i := 0; i <= maxQueue+1; i++ {
			evs = append(evs, arr(i, des.Time(i)*ms, "t", "sio", sp))
		}
		rep, err := Replay(buildTrace(h, evs), ReplayOptions{})
		if err != nil {
			t.Fatalf("Replay(queue %d): %v", maxQueue, err)
		}
		shed := rep.Jobs[maxQueue+1]
		if shed.State != Rejected || !strings.Contains(shed.Reason, "shed") {
			t.Fatalf("job %d not shed: %+v", maxQueue+1, shed)
		}
		return shed.RetryAfter
	}
	r1 := shedRetry(1)
	r3 := shedRetry(3)
	if r1 < 2 {
		t.Errorf("1-deep backlog hint %ds — floor value, drain prediction never engaged", r1)
	}
	if r3 <= r1 {
		t.Errorf("3-deep backlog hint %ds not above 1-deep hint %ds", r3, r1)
	}
}

// TestPreemptCancelReplay: under a preempting policy a DELETE reaches a
// RUNNING job — it checkpoint-quiesces at the next chunk boundary and
// ends Cancelled; under the same schedule without Preempt the cancel is
// a no-op and the job runs to Done. Both replays are deterministic.
func TestPreemptCancelReplay(t *testing.T) {
	ms := des.Millisecond
	mk := func(preempt bool) *Trace {
		h := Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 4, GPUsPerNode: 4,
			Preempt: preempt, PhysBudget: testPhys}
		return buildTrace(h, []Event{
			arr(0, 0, "t", "sio", Params{"elements": 16 << 20, "gpus": 4, "seed": int64(1), "chunkcap": 1 << 20}),
			{Cancel: &Cancel{Seq: 0, At: 5 * ms}},
		})
	}
	rep, err := Replay(mk(true), ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay(preempt): %v", err)
	}
	if got := rep.Jobs[0].State; got != Cancelled {
		t.Fatalf("preempt-cancelled job ended %v, want %v (%s)", got, Cancelled, rep.Jobs[0].Reason)
	}
	if rep.Stats.Cancelled != 1 || rep.Stats.Done != 0 {
		t.Fatalf("stats after preempt-cancel: %+v", rep.Stats)
	}
	// The gang freed at a chunk boundary, not at the job's natural end.
	if rep.Jobs[0].Finish <= 5*ms {
		t.Fatalf("cancel applied at %v, before the cancel event", rep.Jobs[0].Finish)
	}
	rep2, err := Replay(mk(true), ReplayOptions{})
	if err != nil {
		t.Fatalf("second Replay(preempt): %v", err)
	}
	if rep.String() != rep2.String() {
		t.Fatalf("preempt-cancel replay not deterministic:\n%s\nvs\n%s", rep.String(), rep2.String())
	}

	ctrl, err := Replay(mk(false), ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay(no preempt): %v", err)
	}
	if got := ctrl.Jobs[0].State; got != Done {
		t.Fatalf("without Preempt the cancel reached a running job: state %v, want %v", got, Done)
	}
}

// TestCancelHTTPDistinction: the DELETE endpoint's 409s distinguish a
// running job under a non-preempting policy (retryable under a different
// policy) from a finished one (never cancellable again), and a
// preempting policy turns the former into a successful cancel.
func TestCancelHTTPDistinction(t *testing.T) {
	// Big chunk count so the engine is still crunching the job's events
	// when the DELETE lands — in live mode the engine free-runs, so only
	// real event-processing work keeps a job observably Running.
	params := Params{"elements": 1 << 36, "gpus": 4, "seed": 1, "chunkcap": 1 << 20}
	submitAndAwaitRunning := func(sv *Server, url string) bool {
		t.Helper()
		resp, body := postJSON(t, url+"/jobs", Request{Tenant: "t", Kind: "sio", Params: params})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
		}
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			info, ok := sv.Job(0)
			if !ok {
				t.Fatal("job 0 vanished")
			}
			switch info.State {
			case Running:
				return true
			case Done, Failed, Cancelled, Rejected:
				return false
			}
			time.Sleep(50 * time.Microsecond)
		}
		t.Fatal("job 0 never left Queued")
		return false
	}
	del := func(url string, id int) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", url, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 512)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	// Non-preempting policy: a running job's DELETE is a 409 that names
	// the policy, not the generic "finished" conflict.
	sv := startTestServer(t, Config{Cluster: cluster.DefaultConfig(4),
		Policy: sched.Policy{Kind: sched.WeightedFair}})
	hs := httptest.NewServer(NewHandler(sv, HandlerConfig{Logf: quietLogf}))
	if submitAndAwaitRunning(sv, hs.URL) {
		code, body := del(hs.URL, 0)
		if code != http.StatusConflict || !strings.Contains(body, "does not preempt") {
			t.Errorf("DELETE running w/o preempt: status %d body %q, want 409 naming the policy", code, body)
		}
	} else {
		t.Log("job finished before the DELETE; running-state 409 not exercised this run")
	}
	waitDrained(t, sv, 1)
	if code, body := del(hs.URL, 0); code != http.StatusConflict || !strings.Contains(body, "already finished") {
		t.Errorf("DELETE finished job: status %d body %q, want 409 'already finished'", code, body)
	}
	sv.Drain()
	hs.Close()

	// Preempting policy: the same DELETE succeeds and the job ends
	// Cancelled.
	svp := startTestServer(t, Config{Cluster: cluster.DefaultConfig(4),
		Policy: sched.Policy{Kind: sched.WeightedFair, Preempt: true}})
	hsp := httptest.NewServer(NewHandler(svp, HandlerConfig{Logf: quietLogf}))
	defer hsp.Close()
	if submitAndAwaitRunning(svp, hsp.URL) {
		code, body := del(hsp.URL, 0)
		if code != http.StatusOK || !strings.Contains(body, "cancelled") {
			t.Fatalf("DELETE running w/ preempt: status %d body %q, want 200", code, body)
		}
		waitDrained(t, svp, 1)
		if info, _ := svp.Job(0); info.State != Cancelled {
			t.Errorf("preempt-cancelled job ended %v, want %v", info.State, Cancelled)
		}
	} else {
		t.Log("job finished before the DELETE; preempt-cancel not exercised this run")
	}
	svp.Drain()
}

// TestSLOLiveReplayIdentity extends the live/replay identity promise to
// the SLO surface: a live run whose submissions carry classes,
// deadlines, downgrade and elastic opt-ins — under a policy with
// reservation, preemption, and grow-back all on — records a trace whose
// offline replay reproduces the report byte for byte, per-class
// attainment lines included.
func TestSLOLiveReplayIdentity(t *testing.T) {
	var rec bytes.Buffer
	sv := startTestServer(t, Config{
		Cluster: cluster.DefaultConfig(8),
		Policy:  sched.Policy{Kind: sched.WeightedFair, Reserve: true, Preempt: true},
		TraceW:  &rec,
	})
	reqs := []Request{
		{Tenant: "a", Kind: "sio", Params: Params{"elements": 32 << 20, "gpus": 8, "seed": int64(1), "chunkcap": 1 << 20},
			Class: "batch", Elastic: true},
		{Tenant: "b", Kind: "wo", Params: Params{"bytes": 4 << 20, "gpus": 2, "seed": int64(2)},
			Class: "interactive", Deadline: 20 * des.Millisecond, MinGang: 2},
		{Tenant: "c", Kind: "kmc", Params: Params{"points": 4 << 20, "gpus": 4, "seed": int64(3)},
			Class: "standard", Deadline: 60 * des.Millisecond, Downgrade: true},
		{Tenant: "a", Kind: "wo", Params: Params{"bytes": 4 << 20, "gpus": 2, "seed": int64(4)},
			Class: "interactive", Deadline: 20 * des.Millisecond, MinGang: 2},
	}
	var accepted int64
	for i, r := range reqs {
		info, err := sv.Submit(r)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if info.State != Rejected {
			accepted++
		}
		if r.Class != "" && info.State != Rejected && info.Class != r.Class {
			t.Fatalf("submit %d: class %q not recorded: %+v", i, r.Class, info)
		}
	}
	waitDrained(t, sv, int64(len(reqs)))
	live, err := sv.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if cs := live.Stats.Classes["interactive"]; cs == nil || cs.Submitted == 0 {
		t.Fatalf("no interactive class stats: %+v", live.Stats.Classes)
	}
	if !strings.Contains(live.String(), "class interactive") {
		t.Fatalf("report has no per-class lines:\n%s", live.String())
	}

	tr, err := ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !tr.Header.Reserve || !tr.Header.Preempt {
		t.Fatalf("recorded header lost SLO switches: %+v", tr.Header)
	}
	replay, err := Replay(tr, ReplayOptions{Catalog: testCatalog()})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if live.String() != replay.String() {
		t.Fatalf("live and replay reports differ:\n--- live ---\n%s--- replay ---\n%s", live.String(), replay.String())
	}
}
