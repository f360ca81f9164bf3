package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sched"
)

const testPhys = 2048

func testCatalog() *Catalog { return DefaultCatalog(testPhys) }

// waitDrained polls until every submitted job reached a terminal state.
func waitDrained(t *testing.T, sv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		s := sv.Stats()
		if s.Done+s.Failed+s.Cancelled+s.rejected() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("jobs never drained: %+v", sv.Stats())
}

// TestLiveReplayOfflineIdentity is the subsystem's core promise: a live
// run with concurrent submitters — wall-clock arrivals, injection
// primitive, admission control — records a trace whose offline replay
// reproduces the run byte for byte, and whose admitted stream fed to the
// closed-system sched.Run produces the identical ClusterTrace and
// byte-identical job outputs (via canonical digests). Run under -race,
// this is also the injection primitive's concurrency stress.
func TestLiveReplayOfflineIdentity(t *testing.T) {
	var rec bytes.Buffer
	cfg := Config{
		Cluster:   cluster.DefaultConfig(8),
		Policy:    sched.Policy{Kind: sched.WeightedFair},
		Catalog:   testCatalog(),
		TimeScale: 20,
		TraceW:    &rec,
	}
	sv, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	kinds := []struct {
		kind   string
		params Params
	}{
		{"wo", Params{"bytes": 1 << 20, "gpus": 2, "seed": 7}},
		{"kmc", Params{"points": 1 << 20, "gpus": 2, "seed": 11}},
		{"sio", Params{"elements": 2 << 20, "gpus": 4, "seed": 13}},
	}
	const perTenant = 3
	var wg sync.WaitGroup
	for ti, tenant := range []string{"alice", "bob", "carol"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perTenant; k++ {
				spec := kinds[(ti+k)%len(kinds)]
				p := Params{}
				for key, v := range spec.params {
					p[key] = v
				}
				p["seed"] = int64(100*ti + k + 1)
				info, err := sv.Submit(Request{Tenant: tenant, Kind: spec.kind, Params: p})
				if err != nil {
					t.Errorf("submit %s/%s: %v", tenant, spec.kind, err)
					return
				}
				if info.State == Rejected {
					t.Errorf("submit %s/%s rejected: %s", tenant, spec.kind, info.Reason)
				}
			}
		}()
	}
	wg.Wait()
	waitDrained(t, sv, 3*perTenant)
	live, err := sv.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if live.Stats.Done != 3*perTenant {
		t.Fatalf("live run: %d done, want %d\n%s", live.Stats.Done, 3*perTenant, live.String())
	}

	// Replay the recorded trace offline: byte-identical report.
	tr, err := ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	replay, err := Replay(tr, ReplayOptions{Catalog: testCatalog()})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if live.String() != replay.String() {
		t.Fatalf("live and replay reports differ:\n--- live ---\n%s--- replay ---\n%s", live.String(), replay.String())
	}

	// The same admitted stream through the closed-system scheduler:
	// identical ClusterTrace text, byte-identical outputs by digest.
	var specs []sched.JobSpec
	var runs []core.Runnable
	for _, ev := range tr.Events {
		a := ev.Arrive
		if a == nil {
			t.Fatal("unexpected cancel in trace")
		}
		name := fmt.Sprintf("%s-%s-%d", a.Tenant, a.Kind, a.Seq)
		run, err := testCatalog().Build(a.Kind, name, a.Params)
		if err != nil {
			t.Fatalf("rebuilding %s: %v", name, err)
		}
		specs = append(specs, sched.JobSpec{At: a.At, Job: run, Weight: a.Weight, MinGang: a.MinGang})
		runs = append(runs, run)
	}
	ct, err := sched.Run(cluster.DefaultConfig(8), cfg.Policy, specs)
	if err != nil {
		t.Fatalf("sched.Run: %v", err)
	}
	if ct.String() != replay.Cluster.String() {
		t.Fatalf("offline sched.Run trace differs from serve replay:\n--- sched.Run ---\n%s--- serve ---\n%s",
			ct.String(), replay.Cluster.String())
	}
	for i, run := range runs {
		d, ok := run.(core.OutputDigester)
		if !ok {
			t.Fatalf("job %d is not digestible", i)
		}
		dig, done := d.OutputDigest()
		if !done {
			t.Fatalf("offline job %d never completed", i)
		}
		j := replay.Jobs[i]
		if !j.HasDigest || j.Digest != dig {
			t.Fatalf("job %d output digest: serve %x (has=%v), offline %x — outputs differ",
				i, j.Digest, j.HasDigest, dig)
		}
	}
}

// buildTrace assembles an in-memory trace for deterministic replay tests.
func buildTrace(h Header, evs []Event) *Trace { return &Trace{Header: h, Events: evs} }

func arr(seq int, at des.Time, tenant, kind string, p Params) Event {
	return Event{Arrive: &Arrival{Seq: seq, At: at, Request: Request{Tenant: tenant, Kind: kind, Params: p}}}
}

// TestAdmissionControl drives shed, quota, and invalid rejects plus a
// cancellation through a hand-built trace, where every virtual time is
// exact. FIFO-exclusive keeps the first job holding the whole machine so
// the queue actually builds.
func TestAdmissionControl(t *testing.T) {
	h := Header{
		Version: TraceVersion, Policy: "fifo-exclusive",
		GPUs: 4, GPUsPerNode: 4,
		MaxQueue: 2, Quota: 2, PhysBudget: testPhys,
	}
	wp := Params{"bytes": 1 << 20, "gpus": 2, "seed": 3}
	ms := des.Millisecond
	tr := buildTrace(h, []Event{
		arr(0, 0, "a", "wo", wp),                    // runs immediately
		arr(1, ms, "a", "wo", wp),                   // queued (depth 1)
		arr(2, 2*ms, "a", "wo", wp),                 // quota: a already has 2 in flight
		arr(3, 3*ms, "b", "wo", wp),                 // queued (depth 2)
		arr(4, 4*ms, "c", "wo", wp),                 // shed: queue full
		arr(5, 5*ms, "c", "nope", nil),              // invalid kind
		arr(6, 6*ms, "c", "wo", Params{"bogus": 1}), // invalid param
		{Cancel: &Cancel{Seq: 3, At: 7 * ms}},       // b withdraws its queued job
		{Cancel: &Cancel{Seq: 0, At: 8 * ms}},       // no-op: job 0 is running
		arr(7, 9*ms, "c", "wo", wp),                 // queue has room again
	})

	rep, err := Replay(tr, ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	wantStates := map[int]State{0: Done, 1: Done, 2: Rejected, 3: Cancelled, 4: Rejected, 5: Rejected, 6: Rejected, 7: Done}
	for id, want := range wantStates {
		if got := rep.Jobs[id].State; got != want {
			t.Errorf("job %d state %v, want %v (%s)", id, got, want, rep.Jobs[id].Reason)
		}
	}
	wantReason := map[int]string{2: "quota", 4: "shed", 5: "unknown job kind", 6: "does not accept parameter"}
	for id, frag := range wantReason {
		if !strings.Contains(rep.Jobs[id].Reason, frag) {
			t.Errorf("job %d reason %q, want fragment %q", id, rep.Jobs[id].Reason, frag)
		}
	}
	s := rep.Stats
	if s.Submitted != 8 || s.Done != 3 || s.Cancelled != 1 ||
		s.RejectedQuota != 1 || s.RejectedShed != 1 || s.RejectedInvalid != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if ts := s.Tenants["a"]; ts.Submitted != 3 || ts.Admitted != 2 || ts.Rejected != 1 || ts.Done != 2 {
		t.Fatalf("tenant a stats: %+v", ts)
	}
	// Only admitted, uncancelled jobs reach the cluster trace.
	if len(rep.Cluster.Jobs) != 3 {
		t.Fatalf("cluster trace has %d jobs, want 3:\n%s", len(rep.Cluster.Jobs), rep.Cluster.String())
	}

	// Determinism: a second replay — with rejects and cancels in the
	// stream — renders the identical report.
	rep2, err := Replay(tr, ReplayOptions{})
	if err != nil {
		t.Fatalf("second Replay: %v", err)
	}
	if rep.String() != rep2.String() {
		t.Fatalf("replay not deterministic:\n%s\nvs\n%s", rep.String(), rep2.String())
	}
}

// TestLiveCancelAndDrain checks the live cancellation surface and that a
// live run containing cancel attempts still replays identically (only
// successful cancels are recorded; failed ones are non-events).
func TestLiveCancelAndDrain(t *testing.T) {
	var rec bytes.Buffer
	cfg := Config{
		Cluster: cluster.DefaultConfig(4),
		Policy:  sched.Policy{Kind: sched.FIFOExclusive},
		Catalog: testCatalog(),
		TraceW:  &rec,
	}
	sv, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if ok, _ := sv.Cancel(99); ok {
		t.Fatal("cancelling an unknown job succeeded")
	}
	// A rapid burst under an exclusive policy: the head runs, the tail
	// queues. Whether any given job is still queued when we cancel is
	// wall-clock dependent — the replay-identity assertion is not.
	var last JobInfo
	for i := 0; i < 5; i++ {
		info, err := sv.Submit(Request{Tenant: "t", Kind: "sio",
			Params: Params{"elements": 16 << 20, "gpus": 4, "seed": int64(i + 1)}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		last = info
	}
	got, err := sv.Cancel(last.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	want := int64(5)
	if got {
		want = 5 // cancelled jobs are terminal too; waitDrained counts them
	}
	waitDrained(t, sv, want)
	// A failed cancel long after the last completion must not advance
	// virtual time (it is not recorded, so an advance would make the
	// live makespan diverge from the replay's — the diff below).
	time.Sleep(50 * time.Millisecond)
	if ok, _ := sv.Cancel(0); ok {
		t.Fatal("cancelling a finished job succeeded")
	}
	live, err := sv.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if j, ok := sv.Job(last.ID); !ok || (got && j.State != Cancelled) || (!got && j.State != Done) {
		t.Fatalf("cancel returned %v but job ended %v", got, j.State)
	}
	if _, err := sv.Submit(Request{Tenant: "t", Kind: "wo"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: err=%v, want ErrDraining", err)
	}

	tr, err := ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	replay, err := Replay(tr, ReplayOptions{Catalog: testCatalog()})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if live.String() != replay.String() {
		t.Fatalf("live and replay reports differ:\n--- live ---\n%s--- replay ---\n%s", live.String(), replay.String())
	}
}

// TestCatalogValidation pins the submission-surface errors.
func TestCatalogValidation(t *testing.T) {
	c := testCatalog()
	if _, err := c.Build("nope", "x", nil); err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, err := c.Build("wo", "x", Params{"byte": 1}); err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Fatalf("unknown param: %v", err)
	}
	// Several unknown keys (the empty one included): the reason names the
	// smallest, whatever order the map iterates in.
	for i := 0; i < 8; i++ {
		_, err := c.Build("wo", "x", Params{"zeta": 1, "seed": 1, "alpha": 1, "": 1, "bytes": 1})
		if err == nil || !strings.Contains(err.Error(), `does not accept parameter "" (accepts [bytes gpus seed dict])`) {
			t.Fatalf("unknown params: %v", err)
		}
	}
	// Hostile values must reject, never panic: a catalog build runs on
	// the engine goroutine, where a panic kills the whole service.
	for name, p := range map[string]Params{
		"negative size": {"elements": -1},
		"zero size":     {"elements": 0},
		"absurd size":   {"elements": 1 << 50},
		"zero gpus":     {"gpus": 0},
	} {
		if _, err := c.Build("sio", "x", p); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("%s: err = %v, want range error", name, err)
		}
	}
	if _, err := c.Build("wo", "x", Params{"bytes": -5}); err == nil {
		t.Error("wo accepted a negative corpus size")
	}
	if _, err := c.Build("kmc", "x", Params{"centers": -1}); err == nil {
		t.Error("kmc accepted negative centers")
	}
	if got := c.Kinds(); len(got) != 3 || got[0] != "kmc" || got[1] != "sio" || got[2] != "wo" {
		t.Fatalf("kinds: %v", got)
	}
}

// TestServerMetrics smoke-checks the Prometheus exposition: counters
// present, consistent with the stats snapshot.
func TestServerMetrics(t *testing.T) {
	cfg := Config{
		Cluster: cluster.DefaultConfig(4),
		Policy:  sched.Policy{Kind: sched.WeightedFair},
		Catalog: testCatalog(),
		Quota:   1,
	}
	sv, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := sv.Submit(Request{Tenant: "m", Kind: "wo", Params: Params{"bytes": 1 << 20, "gpus": 2}}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDrained(t, sv, 1)
	var mb strings.Builder
	sv.WriteMetrics(&mb)
	out := mb.String()
	for _, want := range []string{
		"gpmr_serve_submitted_total 1",
		"gpmr_serve_done_total 1",
		`gpmr_serve_rejected_total{reason="shed"} 0`,
		"gpmr_serve_queue_depth 0",
		"gpmr_serve_ranks 4",
		`gpmr_serve_tenant_submitted_total{tenant="m"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	if _, err := sv.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
