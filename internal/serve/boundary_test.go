package serve

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sched"
)

// boundaryShards are the engine modes the live-boundary tests cover: the
// single engine, the only one Start accepts (TestStartRefusesShardedCluster).
var boundaryShards = []int{0}

// startRecorded starts a live server whose wall clock is scaled to nothing,
// so every submission is stamped at the engine frontier — the one place a
// live run can tie with simulated events.
func startRecorded(t *testing.T, cat *Catalog, rec *bytes.Buffer) *Server {
	t.Helper()
	sv, err := Start(Config{
		Cluster:   cluster.DefaultConfig(8),
		Policy:    sched.Policy{Kind: sched.WeightedFair},
		Catalog:   cat,
		TimeScale: 1e-9,
		TraceW:    rec,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return sv
}

// drainAndReplay drains the live server and replays its recorded trace;
// the two reports must be byte-identical.
func drainAndReplay(t *testing.T, sv *Server, cat *Catalog, rec *bytes.Buffer) *Report {
	t.Helper()
	live, err := sv.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	tr, err := ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	replay, err := Replay(tr, ReplayOptions{Catalog: cat})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if live.String() != replay.String() {
		t.Errorf("live and replay reports differ:\n--- live ---\n%s--- replay ---\n%s", live.String(), replay.String())
	}
	return live
}

// TestLiveReplayIdentityAtTiedTimes submits a job at exactly the instant
// the previous one finishes: with the engine parked at that frontier the
// arrival is stamped with the finish time. Live, the arrival ran after the
// finish and found the whole cluster idle; the replay must place it there
// too, not ahead of the completion that shares its timestamp.
func TestLiveReplayIdentityAtTiedTimes(t *testing.T) {
	for _, shards := range boundaryShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var rec bytes.Buffer
			sv := startRecorded(t, testCatalog(), &rec)
			first, err := sv.Submit(Request{Tenant: "a", Kind: "wo", Params: Params{"bytes": 1 << 20, "gpus": 4, "seed": 1}})
			if err != nil || first.State == Rejected {
				t.Fatalf("first submit: %v %+v", err, first)
			}
			waitDrained(t, sv, 1)
			second, err := sv.Submit(Request{Tenant: "b", Kind: "sio", Params: Params{"elements": 2 << 20, "gpus": 8, "seed": 2}})
			if err != nil || second.State == Rejected {
				t.Fatalf("second submit: %v %+v", err, second)
			}
			waitDrained(t, sv, 2)
			live := drainAndReplay(t, sv, testCatalog(), &rec)
			if a, b := live.Jobs[0], live.Jobs[1]; b.Arrival != a.Finish || b.Granted != 8 {
				t.Errorf("no tie exercised: first finished %v, second arrived %v and was granted %d of 8", a.Finish, b.Arrival, b.Granted)
			}

			// The closed-system scheduler fed the same stream agrees too.
			var specs []sched.JobSpec
			for _, j := range live.Jobs {
				run, err := testCatalog().Build(j.Kind, j.Name, j.Params)
				if err != nil {
					t.Fatalf("rebuilding %s: %v", j.Name, err)
				}
				specs = append(specs, sched.JobSpec{At: j.Arrival, Job: run})
			}
			ct, err := sched.Run(cluster.DefaultConfig(8), sched.Policy{Kind: sched.WeightedFair}, specs)
			if err != nil {
				t.Fatalf("sched.Run: %v", err)
			}
			if ct.String() != live.Cluster.String() {
				t.Errorf("offline sched.Run diverges from the live run:\n--- live ---\n%s--- offline ---\n%s", live.Cluster.String(), ct.String())
			}
		})
	}
}

// Virtual length of a gate job and how often it looks for its successor.
const (
	gateLen  = des.Second
	gateStep = 10 * des.Microsecond
)

// gateJob is a runnable of fixed virtual length. Until seen is set it
// advances in small steps, returning to the dispatch loop each time, so a
// live engine has the chance to admit the next submission while this job
// runs; how many steps that takes never shows in virtual time.
type gateJob struct {
	name   string
	gpus   int
	length des.Time
	seen   *atomic.Bool
}

func (g *gateJob) RunName() string    { return g.name }
func (g *gateJob) GangWant() int      { return g.gpus }
func (g *gateJob) ValidateJob() error { return nil }

func (g *gateJob) LaunchOn(eng *des.Engine, _ *cluster.Cluster, ranks []int, done func(*core.Trace)) error {
	eng.Spawn(g.name, func(p *des.Proc) {
		start := p.Now()
		for p.Now()-start < g.length && !g.seen.Load() {
			runtime.Gosched()
			p.Sleep(gateStep)
		}
		p.Sleep(g.length - (p.Now() - start))
		done(&core.Trace{Name: g.name, GPUs: len(ranks), Wall: g.length})
	})
	return nil
}

// A gate job never quiesces, is priced at its fixed length, and has no
// output: its digest is fixed and it renders nothing.
func (g *gateJob) PreemptLaunch() bool                             { return false }
func (g *gateJob) EstimateCost(_ *cluster.Cluster, _ int) des.Time { return g.length }
func (g *gateJob) OutputDigest() (uint64, bool)                    { return 0, true }
func (g *gateJob) RenderOutput(w io.Writer) error                  { return nil }

// gateCatalog serves "gate", a long job that waits to see its successor
// arrive, and "next", a short job whose construction is that signal.
func gateCatalog() *Catalog {
	seen := new(atomic.Bool)
	cat := NewCatalog(testPhys)
	cat.Register("gate", Builder{Build: func(name string, _ Params) (core.Runnable, error) {
		return &gateJob{name: name, gpus: 4, length: gateLen, seen: seen}, nil
	}})
	cat.Register("next", Builder{Build: func(name string, _ Params) (core.Runnable, error) {
		seen.Store(true)
		return &gateJob{name: name, gpus: 4, length: des.Millisecond, seen: seen}, nil
	}})
	return cat
}

// TestLiveAdmitsWhileJobRuns: a submission made while a job is running is
// admitted at the frontier the engine has reached, not held until the
// queue drains, and the recorded trace still replays to the identical report.
func TestLiveAdmitsWhileJobRuns(t *testing.T) {
	for _, shards := range boundaryShards {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var rec bytes.Buffer
			sv := startRecorded(t, gateCatalog(), &rec)
			for _, kind := range []string{"gate", "next"} {
				if info, err := sv.Submit(Request{Tenant: "a", Kind: kind}); err != nil || info.State == Rejected {
					t.Fatalf("submit %s: %v %+v", kind, err, info)
				}
			}
			live := drainAndReplay(t, sv, gateCatalog(), &rec)
			if gate, next := live.Jobs[0], live.Jobs[1]; gate.State != Done || next.State != Done || next.Arrival >= gate.Finish {
				t.Errorf("submission was held until the running job finished: gate %s finish %v, next %s arrival %v",
					gate.State, gate.Finish, next.State, next.Arrival)
			}
		})
	}
}

// TestStartRefusesShardedCluster: a trace header cannot record an engine
// shard count, so Start refuses a sharded cluster, naming the field,
// rather than serve a run its own trace would not replay.
func TestStartRefusesShardedCluster(t *testing.T) {
	cc := cluster.DefaultConfig(8)
	cc.Shards = 1
	sv, err := Start(Config{Cluster: cc, Policy: sched.Policy{Kind: sched.WeightedFair}, Catalog: testCatalog()})
	if err == nil {
		sv.Drain()
		t.Fatal("Start accepted Cluster.Shards = 1")
	}
	if !strings.Contains(err.Error(), "Cluster.Shards") {
		t.Errorf("error %q does not name Cluster.Shards", err)
	}
}
