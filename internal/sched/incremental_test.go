package sched

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
)

// The admission pass reads state that is maintained where a job changes
// state (setState, setFree, the estimate memo) instead of recomputing it
// from s.recs. These tests recompute it the old way and compare, count
// what the memo lets through, and give `go test -bench` the burst whose
// cost the maintained state changes.

// stubJob is a Runnable the tests can price, preempt and count. A launch
// is one process that sleeps through the job's steps — the same work on
// a narrower gang takes more of them — and quiesces at a step boundary
// when asked to, like a core.Scheduled at a chunk boundary.
type stubJob struct {
	name     string
	gpus     int
	steps    int
	step     des.Time
	stop     *bool       // the latest launch's quiesce flag
	estCalls map[int]int // gang size -> EstimateCost calls
}

func (j *stubJob) RunName() string    { return j.name }
func (j *stubJob) GangWant() int      { return j.gpus }
func (j *stubJob) ValidateJob() error { return nil }

func (j *stubJob) service(gang int) des.Time {
	return j.step * des.Time(j.steps*j.gpus/gang)
}

func (j *stubJob) LaunchOn(eng *des.Engine, _ *cluster.Cluster, ranks []int, done func(*core.Trace)) error {
	stop := new(bool)
	j.stop = stop
	eng.Spawn(j.name, func(p *des.Proc) {
		for t := des.Time(0); t < j.service(len(ranks)) && !*stop; t += j.step {
			p.Sleep(j.step)
		}
		done(&core.Trace{Name: j.name, GPUs: len(ranks), Preempted: *stop})
	})
	return nil
}

func (j *stubJob) PreemptLaunch() bool {
	if j.stop == nil {
		return false
	}
	*j.stop = true
	return true
}

func (j *stubJob) EstimateCost(_ *cluster.Cluster, gang int) des.Time {
	j.estCalls[gang]++
	return j.service(gang)
}

// A stub has no output: its digest is fixed and it renders nothing.
func (j *stubJob) OutputDigest() (uint64, bool)   { return 0, true }
func (j *stubJob) RenderOutput(w io.Writer) error { return nil }

func newStub(i, gpus, steps int) *stubJob {
	return &stubJob{name: "stub-" + strconv.Itoa(i), gpus: gpus, steps: steps, step: 100 * des.Microsecond,
		estCalls: make(map[int]int)}
}

// checkIncremental recomputes everything setState and setFree maintain
// from s.recs and s.free, the way the scheduler itself used to, and
// checks that the running jobs' leases and the idle ranks partition the
// machine. It runs on simulated processes, so it reports with Errorf
// (first failure only) and never stops the goroutine the engine is
// waiting on. requeuing is 1 inside OnRequeue for a job going back to
// the queue: the hook fires between the job turning waiting and its
// re-insertion.
func checkIncremental(t *testing.T, s *Scheduler, when string, requeuing int) {
	t.Helper()
	if t.Failed() {
		return
	}
	demand, waiting := 0, 0
	var running []*jobRec
	for _, r := range s.recs {
		if r.waiting && r.running {
			t.Errorf("%s: job %d both waiting and running", when, r.ID)
		}
		if r.waiting || r.running {
			demand += r.Weight
		}
		if r.waiting {
			waiting++
		}
		if r.running {
			running = append(running, r) // s.recs is in ID order, so this is too
		}
	}
	if s.demand != demand {
		t.Errorf("%s: demand %d, recomputed %d", when, s.demand, demand)
	}
	if len(s.queue)+requeuing != waiting {
		t.Errorf("%s: %d queued, %d jobs waiting", when, len(s.queue), waiting)
	}
	if s.Running() != len(running) {
		t.Errorf("%s: Running() %d, recomputed %d", when, s.Running(), len(running))
	}
	for i, r := range running {
		if i < len(s.running) && s.running[i] != r {
			t.Errorf("%s: running set slot %d holds job %d, recomputed job %d (must ascend by ID)",
				when, i, s.running[i].ID, r.ID)
		}
	}
	nodeFree, nFree := make([]int, len(s.cl.Nodes)), 0
	for r, free := range s.free {
		if free {
			nodeFree[s.cl.NodeOfRank(r).ID]++
			nFree++
		}
	}
	if s.nFree != nFree {
		t.Errorf("%s: nFree %d, recomputed %d", when, s.nFree, nFree)
	}
	for ni := range nodeFree {
		if s.nodeFree[ni] != nodeFree[ni] {
			t.Errorf("%s: node %d has %d free, recomputed %d", when, ni, s.nodeFree[ni], nodeFree[ni])
		}
	}
	// The partition the gang rule rests on: every rank is idle or leased
	// by exactly one running job. It is what makes "nFree < Ranks" the
	// FIFOExclusive "something runs" test, and what lets the reservation
	// walk always end on a start.
	owner := make([]*jobRec, len(s.free))
	leased := 0
	for _, r := range s.running {
		leased += len(r.leased)
		for _, rank := range r.leased {
			switch {
			case s.free[rank]:
				t.Errorf("%s: rank %d is idle and leased by job %d", when, rank, r.ID)
			case owner[rank] != nil:
				t.Errorf("%s: rank %d leased by jobs %d and %d", when, rank, owner[rank].ID, r.ID)
			}
			owner[rank] = r
		}
	}
	for rank, free := range s.free {
		if !free && owner[rank] == nil {
			t.Errorf("%s: rank %d is busy but leased by no running job", when, rank)
		}
	}
	if s.nFree+leased != s.cl.Ranks() {
		t.Errorf("%s: %d idle + %d leased != %d ranks", when, s.nFree, leased, s.cl.Ranks())
	}
}

// TestIncrementalStateMatchesRecompute drives seeded random streams —
// weights, floors, classes, deadlines with and without downgrade, elastic
// jobs, queue cancels and preempt-cancels — through every policy on the
// single engine and on two shards, checking after every hook and at the
// end. The tallies at the bottom keep the streams honest: every path that
// moves a job between states must actually have been taken.
func TestIncrementalStateMatchesRecompute(t *testing.T) {
	policies := []Policy{
		{Kind: FIFOExclusive},
		{Kind: FixedShare, Share: 4},
		{Kind: WeightedFair},
		{Kind: WeightedFair, Reserve: true},
		{Kind: WeightedFair, Reserve: true, Preempt: true},
	}
	var starts, preempted, preemptCancelled, cancelled, rejected, downgraded, grown int
	for pi, pol := range policies {
		for _, shards := range []int{0, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				when := fmt.Sprintf("policy %d shards %d seed %d", pi, shards, seed)
				cc := cc16()
				cc.Shards = shards
				s, err := New(cc, pol)
				if err != nil {
					t.Fatal(err)
				}
				s.OnStart = func(id int, _ []int) { starts++; checkIncremental(t, s, when+": OnStart", 0) }
				s.OnDone = func(int, core.Runnable, *core.Trace, error) { checkIncremental(t, s, when+": OnDone", 0) }
				s.OnRequeue = func(_ int, cancel bool) {
					if cancel {
						preemptCancelled++
						checkIncremental(t, s, when+": OnRequeue(cancel)", 0)
					} else {
						preempted++
						checkIncremental(t, s, when+": OnRequeue", 1)
					}
				}
				rng := rand.New(rand.NewSource(seed))
				s.Engine().Spawn("driver", func(p *des.Proc) {
					const n = 60
					for i := 0; i < n; i++ {
						p.SleepLate(des.Time(rng.Intn(300)) * des.Microsecond)
						job := newStub(i, 1<<rng.Intn(5), 2+rng.Intn(8))
						sp := JobSpec{Job: job, Weight: rng.Intn(4), Class: Class(rng.Intn(3)), Elastic: rng.Intn(2) == 0}
						if rng.Intn(3) == 0 {
							sp.MinGang = 1 + rng.Intn(job.gpus)
						}
						if rng.Intn(3) == 0 {
							// From hopeless to generous, against an exclusive
							// service time of at most 1 ms.
							sp.Deadline = des.Time(1+rng.Intn(40)) * 100 * des.Microsecond
							sp.DowngradeOnMiss = rng.Intn(2) == 0
						}
						if _, err := s.Submit(sp); err != nil {
							t.Errorf("%s: submit %d: %v", when, i, err)
						}
						checkIncremental(t, s, when+": after Submit", 0)
						switch victim := rng.Intn(len(s.recs)); rng.Intn(6) {
						case 0:
							if s.Cancel(victim) {
								cancelled++
							}
						case 1:
							if pol.Preempt {
								s.PreemptCancel(victim)
							}
						}
						checkIncremental(t, s, when+": after cancels", 0)
					}
				})
				s.Run()
				s.Close()
				checkIncremental(t, s, when+": at the end", 0)
				if s.demand != 0 || len(s.running) != 0 || len(s.queue) != 0 || s.nFree != s.cl.Ranks() {
					t.Fatalf("%s: drained scheduler holds demand %d, %d running, %d queued, %d of %d ranks free",
						when, s.demand, len(s.running), len(s.queue), s.nFree, s.cl.Ranks())
				}
				for _, r := range s.recs {
					if r.rejected {
						rejected++
					}
					if r.Downgraded {
						downgraded++
					}
					if r.floorGang > 0 {
						grown++
					}
				}
			}
		}
	}
	for name, n := range map[string]int{"starts": starts, "class preemptions and grow-backs": preempted,
		"preempt-cancels": preemptCancelled, "queue cancels": cancelled, "SLO rejects": rejected,
		"downgrades": downgraded, "grow-backs": grown} {
		if n == 0 {
			t.Errorf("the streams exercised no %s", name)
		}
	}
}

// TestCostModelAskedOncePerGangSize: EstimateCost re-walks every chunk of
// a job, so the scheduler asks it at most once per (job, gang size)
// however many admission passes, deadline predictions and Retry-After
// probes price that job — and never for a stream nothing prices.
func TestCostModelAskedOncePerGangSize(t *testing.T) {
	run := func(pol Policy, n int, deadlines bool, probes int) []*stubJob {
		s, err := New(cluster.DefaultConfig(64), pol)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		jobs := make([]*stubJob, n)
		s.Engine().Spawn("driver", func(p *des.Proc) {
			for i := range jobs {
				jobs[i] = newStub(i, 1<<(i%4), 4)
				sp := JobSpec{Job: jobs[i]}
				if deadlines {
					sp.Deadline = des.Second // generous: priced at the door, then admitted
				}
				if _, err := s.Submit(sp); err != nil {
					t.Errorf("submit %d: %v", i, err)
				}
			}
			for i := 0; i < probes; i++ {
				s.QueuedCost()
				p.Sleep(200 * des.Microsecond)
			}
		})
		s.Run()
		return jobs
	}

	asked := 0
	for _, j := range run(Policy{Kind: WeightedFair, Reserve: true}, 200, true, 50) {
		for gang, calls := range j.estCalls {
			asked++
			if calls > 1 {
				t.Errorf("%s priced %d times on a gang of %d", j.name, calls, gang)
			}
		}
	}
	if asked < 200 {
		t.Errorf("a 200-job Reserve burst with deadlines asked the cost model %d times; every job is priced at the door", asked)
	}
	for _, j := range run(Policy{Kind: WeightedFair}, 200, false, 0) {
		if len(j.estCalls) != 0 {
			t.Errorf("%s priced (%v) on a stream with no Reserve and no deadline", j.name, j.estCalls)
		}
	}
}

// --- the benchmark's burst, for `go test -bench` ---

type noopChunk struct{ key uint32 }

func (noopChunk) Elems() int       { return 1 }
func (noopChunk) VirtBytes() int64 { return 8 }

// noopMapper emits its chunk's pair without launching a kernel, so a run
// costs only the engine, core's per-job spin-up and this package.
type noopMapper struct{}

func (noopMapper) Map(ctx *core.MapContext[uint32], c core.Chunk) { ctx.Emit(c.(noopChunk).key, 1) }

// noopBurst is benchmark/schedchild.go's burst: n jobs arriving at t=0,
// equally many wanting 1, 2, 4 and 8 GPUs in a seeded order, two one-pair
// chunks per GPU.
func noopBurst(n int) []JobSpec {
	rng := rand.New(rand.NewSource(1))
	gangs := make([]int, n)
	for i := range gangs {
		gangs[i] = 1 << (i % 4)
	}
	rng.Shuffle(n, func(i, j int) { gangs[i], gangs[j] = gangs[j], gangs[i] })
	specs := make([]JobSpec, n)
	for i, gpus := range gangs {
		chunks := make([]core.Chunk, 2*gpus)
		for c := range chunks {
			chunks[c] = noopChunk{key: uint32(rng.Intn(1 << 16))}
		}
		specs[i] = JobSpec{Job: &core.Scheduled[uint32]{Job: &core.Job[uint32]{
			Config:      core.Config{Name: "noop-" + strconv.Itoa(i), GPUs: gpus},
			Chunks:      chunks,
			Mapper:      noopMapper{},
			Partitioner: core.RoundRobin{},
		}}}
	}
	return specs
}

// BenchmarkBurst is one burst per iteration on 64 GPUs. Across depths the
// time per job should stay flat; it asserts nothing.
func BenchmarkBurst(b *testing.B) {
	policies := []struct {
		name string
		pol  Policy
	}{
		{"weightedfair", Policy{Kind: WeightedFair}},
		{"reserve", Policy{Kind: WeightedFair, Reserve: true}},
		{"fixedshare", Policy{Kind: FixedShare, Share: 4}},
	}
	for _, pc := range policies {
		for _, n := range []int{500, 2000} {
			b.Run(fmt.Sprintf("%s/%d", pc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					specs := noopBurst(n)
					b.StartTimer()
					ct, err := Run(cluster.DefaultConfig(64), pc.pol, specs)
					if err != nil || len(ct.Jobs) != n {
						b.Fatalf("%d-job burst: %v", n, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/job")
			})
		}
	}
}
