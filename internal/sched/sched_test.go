package sched

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// --- a miniature count job, enough pipeline to exercise the scheduler ---

// virtFactor inflates the fixture jobs to paper scale so they take
// milliseconds of simulated time — long enough for arrivals to overlap.
const virtFactor = 1 << 12

type intChunk struct{ data []uint32 }

func (c *intChunk) Elems() int       { return len(c.data) }
func (c *intChunk) VirtBytes() int64 { return int64(len(c.data)) * 4 * virtFactor }

type countMapper struct{}

func (countMapper) Map(ctx *core.MapContext[uint32], c core.Chunk) {
	ic := c.(*intChunk)
	virtN := int64(len(ic.data)) * ctx.VirtFactor
	spec := gpu.KernelSpec{Name: "count.map", Threads: virtN, BytesRead: float64(virtN * 4), BytesWritten: float64(virtN * 8)}
	ctx.Launch(spec, func() {
		for _, k := range ic.data {
			ctx.Emit(k, 1)
		}
	})
	ctx.SetEmittedVirt(virtN)
}

// makeJob builds a reducer-less count job (the post-shuffle pairs are the
// output) with nChunks chunks of elems keys each, requesting gpus ranks.
func makeJob(name string, gpus, nChunks, elems int) *core.Scheduled[uint32] {
	data := workload.SparseInts(7, nChunks*elems)
	chunks := make([]core.Chunk, nChunks)
	for i := range chunks {
		chunks[i] = &intChunk{data: data[i*elems : (i+1)*elems]}
	}
	return &core.Scheduled[uint32]{Job: &core.Job[uint32]{
		Config:      core.Config{Name: name, GPUs: gpus, VirtFactor: virtFactor},
		Chunks:      chunks,
		Mapper:      countMapper{},
		Partitioner: core.RoundRobin{},
	}}
}

// cc16 is a 16-rank, 4-per-node cluster (the paper's packing).
func cc16() cluster.Config { return cluster.DefaultConfig(16) }

func jobByID(t *ClusterTrace, id int) *JobTrace {
	for i := range t.Jobs {
		if t.Jobs[i].ID == id {
			return &t.Jobs[i]
		}
	}
	return nil
}

func TestFIFOExclusiveSerializes(t *testing.T) {
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 8, 8, 256)},
		{At: 0, Job: makeJob("b", 4, 4, 256)},
	}
	ct, err := Run(cc16(), Policy{Kind: FIFOExclusive}, specs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobByID(ct, 0), jobByID(ct, 1)
	if b.Admit < a.Finish {
		t.Errorf("FIFO-exclusive overlapped jobs: b admitted %v, a finished %v", b.Admit, a.Finish)
	}
	if a.Granted != 8 || b.Granted != 4 {
		t.Errorf("granted %d/%d, want requested 8/4", a.Granted, b.Granted)
	}
}

func TestFixedShareRunsConcurrently(t *testing.T) {
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 4, 8, 256)},
		{At: 0, Job: makeJob("b", 4, 8, 256)},
	}
	ct, err := Run(cc16(), Policy{Kind: FixedShare, Share: 4}, specs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobByID(ct, 0), jobByID(ct, 1)
	if b.Admit >= a.Finish {
		t.Errorf("fixed-share did not overlap: b admitted %v, a finished %v", b.Admit, a.Finish)
	}
	// Disjoint gangs.
	seen := map[int]bool{}
	for _, r := range append(append([]int{}, a.Gang...), b.Gang...) {
		if seen[r] {
			t.Fatalf("rank %d appears in two concurrent gangs", r)
		}
		seen[r] = true
	}
}

func TestWholeNodePlacement(t *testing.T) {
	// Job a takes a 2-rank bite out of one node; job b's 4-rank gang must
	// land on a still-whole node, not straddle the bitten one.
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 2, 2, 256)},
		{At: 0, Job: makeJob("b", 4, 4, 256)},
	}
	ct, err := Run(cc16(), Policy{Kind: FixedShare, Share: 8}, specs)
	if err != nil {
		t.Fatal(err)
	}
	b := jobByID(ct, 1)
	if len(b.Gang) != 4 {
		t.Fatalf("b granted %d ranks, want 4", len(b.Gang))
	}
	node := b.Gang[0] / 4
	for _, r := range b.Gang {
		if r/4 != node {
			t.Errorf("4-rank gang split across nodes: %v", b.Gang)
		}
	}
}

func TestBackfillStartsSmallJobEarly(t *testing.T) {
	// a holds 12 of 16 ranks; the 8-rank b blocks at the head; the 2-rank
	// c backfills onto the idle ranks while a drains.
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 12, 24, 512)},
		{At: des.Millisecond, Job: makeJob("b", 8, 8, 256)},
		{At: 2 * des.Millisecond, Job: makeJob("c", 2, 2, 64)},
	}
	ct, err := Run(cc16(), Policy{Kind: FixedShare, Share: 12}, specs)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := jobByID(ct, 0), jobByID(ct, 1), jobByID(ct, 2)
	if c.Admit >= a.Finish {
		t.Errorf("backfill failed: c admitted %v, a finished %v", c.Admit, a.Finish)
	}
	if c.Admit >= b.Admit {
		t.Errorf("c (backfilled) admitted %v, not before blocked b at %v", c.Admit, b.Admit)
	}
}

func TestWeightedFairMoldsOntoIdleRanks(t *testing.T) {
	// a occupies 14 ranks; b (want 8, MinGang 1) arrives and should mold
	// onto the 2 idle ranks instead of waiting for a to finish.
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 14, 28, 512)},
		{At: des.Millisecond, Job: makeJob("b", 8, 8, 256)},
	}
	ct, err := Run(cc16(), Policy{Kind: WeightedFair}, specs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobByID(ct, 0), jobByID(ct, 1)
	if b.Admit >= a.Finish {
		t.Errorf("weighted-fair did not mold: b admitted %v, a finished %v", b.Admit, a.Finish)
	}
	if b.Granted != 2 {
		t.Errorf("b granted %d ranks, want the 2 idle ones", b.Granted)
	}
	if b.Granted > 0 && b.Trace == nil {
		t.Error("scheduled job finished without a trace")
	}
}

func TestWeightedFairRespectsMinGang(t *testing.T) {
	// Same shape, but b refuses gangs under 4: it must wait for a.
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 14, 28, 512)},
		{At: des.Millisecond, Job: makeJob("b", 8, 8, 256), MinGang: 4},
	}
	ct, err := Run(cc16(), Policy{Kind: WeightedFair}, specs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobByID(ct, 0), jobByID(ct, 1)
	if b.Admit < a.Finish {
		t.Errorf("b admitted %v before a finished %v despite MinGang 4", b.Admit, a.Finish)
	}
}

func TestScheduledCapturesResult(t *testing.T) {
	job := makeJob("solo", 4, 4, 128)
	_, err := Run(cc16(), Policy{Kind: WeightedFair}, []JobSpec{{At: 0, Job: job}})
	if err != nil {
		t.Fatal(err)
	}
	if job.Result == nil {
		t.Fatal("Scheduled.Result not populated")
	}
	total := 0
	for _, pr := range job.Result.PerRank {
		total += pr.Len()
	}
	if total != 4*128 {
		t.Errorf("scheduled job produced %d pairs, want %d", total, 4*128)
	}
}

func TestRunDeterminism(t *testing.T) {
	mk := func() []JobSpec {
		return []JobSpec{
			{At: 0, Job: makeJob("a", 8, 16, 512)},
			{At: des.Millisecond, Job: makeJob("b", 4, 8, 256)},
			{At: 3 * des.Millisecond, Job: makeJob("c", 2, 4, 128)},
		}
	}
	x, err := Run(cc16(), Policy{Kind: WeightedFair}, mk())
	if err != nil {
		t.Fatal(err)
	}
	y, err := Run(cc16(), Policy{Kind: WeightedFair}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("same submissions, different cluster traces:\n--- run 1\n%s--- run 2\n%s", x, y)
	}
}

func TestValidationErrors(t *testing.T) {
	good := func() JobSpec { return JobSpec{At: 0, Job: makeJob("ok", 4, 4, 64)} }
	cases := []struct {
		name  string
		cc    cluster.Config
		pol   Policy
		specs []JobSpec
		want  error
	}{
		{"unknown policy", cc16(), Policy{Kind: PolicyKind(42)}, []JobSpec{good()}, ErrUnknownPolicy},
		{"zero share", cc16(), Policy{Kind: FixedShare}, []JobSpec{good()}, ErrBadShare},
		{"share over cluster", cc16(), Policy{Kind: FixedShare, Share: 99}, []JobSpec{good()}, ErrBadShare},
		{"no jobs", cc16(), Policy{Kind: WeightedFair}, nil, ErrNoJobs},
		{"nil job", cc16(), Policy{Kind: WeightedFair}, []JobSpec{{At: 0}}, ErrNilJob},
		{"negative weight", cc16(), Policy{Kind: WeightedFair},
			[]JobSpec{{At: 0, Job: makeJob("w", 4, 4, 64), Weight: -1}}, ErrBadWeight},
		{"gang over cluster", cc16(), Policy{Kind: WeightedFair},
			[]JobSpec{{At: 0, Job: makeJob("big", 17, 4, 64)}}, ErrGangTooBig},
		{"min gang over want", cc16(), Policy{Kind: WeightedFair},
			[]JobSpec{{At: 0, Job: makeJob("m", 4, 4, 64), MinGang: 8}}, ErrBadMinGang},
		{"negative arrival", cc16(), Policy{Kind: WeightedFair},
			[]JobSpec{{At: -des.Millisecond, Job: makeJob("t", 4, 4, 64)}}, ErrBadArrival},
		{"bad cluster", cluster.Config{}, Policy{Kind: WeightedFair}, []JobSpec{good()}, ErrBadCluster},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cc, tc.pol, tc.specs)
			if !errors.Is(err, tc.want) {
				t.Errorf("got error %v, want %v", err, tc.want)
			}
		})
	}
}

func TestInvalidJobConfigRejectedUpFront(t *testing.T) {
	bad := makeJob("bad", 4, 4, 64)
	bad.Job.Config.StealPolicy = core.StealPolicy(99)
	_, err := Run(cc16(), Policy{Kind: WeightedFair}, []JobSpec{{At: 0, Job: bad}})
	if err == nil {
		t.Fatal("invalid job config admitted")
	}
}

func TestJainIndex(t *testing.T) {
	even := &ClusterTrace{Jobs: []JobTrace{
		{Arrival: 0, Admit: 0, Finish: 10},
		{Arrival: 0, Admit: 0, Finish: 20},
	}}
	if j := even.Jain(); j < 0.999 {
		t.Errorf("equal slowdowns give Jain %f, want 1", j)
	}
	skewed := &ClusterTrace{Jobs: []JobTrace{
		{Arrival: 0, Admit: 0, Finish: 10},   // slowdown 1
		{Arrival: 0, Admit: 90, Finish: 100}, // slowdown 10
	}}
	if j := skewed.Jain(); j >= 0.99 {
		t.Errorf("skewed slowdowns give Jain %f, want < 1", j)
	}
}

func TestDerateScopedToTenantLease(t *testing.T) {
	// Job a's fault plan derates its rank 0 by 8x. When c later reuses
	// the same ranks, it must see nominal hardware: its service time has
	// to match a run of the identical stream where a had no fault plan.
	mk := func(withStraggler bool) []JobSpec {
		a := makeJob("a", 2, 4, 256)
		if withStraggler {
			a.Job.Config.Faults = &fault.Plan{Events: []fault.Event{fault.SlowdownAfterChunks(0, 1, 8)}}
		}
		return []JobSpec{
			{At: 0, Job: a},
			// c arrives long after either variant of a finishes, so its
			// admission time is its arrival time in both streams.
			{At: des.Second, Job: makeJob("c", 2, 4, 256)},
		}
	}
	cc := cluster.DefaultConfig(4)
	slow, err := Run(cc, Policy{Kind: FixedShare, Share: 2}, mk(true))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(cc, Policy{Kind: FixedShare, Share: 2}, mk(false))
	if err != nil {
		t.Fatal(err)
	}
	if a := jobByID(slow, 0); a.Trace.Ranks[0].Derated <= 1 {
		t.Fatalf("fixture failed: job a not derated (%v)", a.Trace.Ranks[0].Derated)
	}
	cSlow, cClean := jobByID(slow, 1), jobByID(clean, 1)
	if cSlow.Gang[0] != 0 || cClean.Gang[0] != 0 {
		t.Fatalf("fixture failed: c not placed on a's ranks (%v / %v)", cSlow.Gang, cClean.Gang)
	}
	if cSlow.Service() != cClean.Service() {
		t.Errorf("a's straggler derating leaked into c's lease: service %v after straggler vs %v after clean run",
			cSlow.Service(), cClean.Service())
	}
}

func TestMoldedGangDropsOutOfRangeFaultEvents(t *testing.T) {
	// The faulty job requests 8 ranks with a straggler event on rank 6;
	// weighted-fair molds it onto the 2 idle ranks. The event aims at a
	// rank the job no longer has — it must be dropped, not abort the run.
	faulty := makeJob("faulty", 8, 8, 256)
	faulty.Job.Config.Faults = &fault.Plan{Events: []fault.Event{fault.SlowdownAfterChunks(6, 1, 8)}}
	specs := []JobSpec{
		{At: 0, Job: makeJob("big", 14, 28, 512)},
		{At: des.Millisecond, Job: faulty},
	}
	ct, err := Run(cc16(), Policy{Kind: WeightedFair}, specs)
	if err != nil {
		t.Fatal(err)
	}
	f := jobByID(ct, 1)
	if f.Granted >= 8 {
		t.Fatalf("fixture failed: faulty job granted %d ranks, wanted a molded gang", f.Granted)
	}
	for r, tr := range f.Trace.Ranks {
		if tr.Derated > 1 {
			t.Errorf("dropped fault event still derated rank %d (%v)", r, tr.Derated)
		}
	}
	if faulty.Result == nil {
		t.Fatal("molded faulty job produced no result")
	}
}

// --- online/edge-case coverage (PR 5) ---

// TestBackfillSkipsUnfittableHead: a head-of-line job whose MinGang
// exceeds everything that can come free while a long job runs must not
// block the queue — backfill admits later small jobs ahead of it.
func TestBackfillSkipsUnfittableHead(t *testing.T) {
	specs := []JobSpec{
		// Holds 8 ranks for a long time.
		{At: 0, Job: makeJob("long", 8, 16, 512), MinGang: 8},
		// The unfittable head: needs all 16 ranks at once, refuses to
		// mold below 16 — it cannot start until "long" finishes.
		{At: des.Millisecond, Job: makeJob("head", 16, 4, 256), MinGang: 16},
		// Small enough for the 8 idle ranks.
		{At: 2 * des.Millisecond, Job: makeJob("little", 2, 2, 256)},
	}
	ct, err := Run(cc16(), Policy{Kind: WeightedFair}, specs)
	if err != nil {
		t.Fatal(err)
	}
	long, head, little := jobByID(ct, 0), jobByID(ct, 1), jobByID(ct, 2)
	if head.Admit < long.Finish {
		t.Errorf("unfittable head admitted at %v before long finished at %v", head.Admit, long.Finish)
	}
	if little.Admit >= head.Admit {
		t.Errorf("backfill failed: little admitted %v, after head %v", little.Admit, head.Admit)
	}
}

// TestFixedShareAtBoundary: gangs sized exactly at the share cap pack the
// cluster with no slack — want == Share admits while ranks last, the
// next job waits for a completion, and want > Share is capped to Share.
func TestFixedShareAtBoundary(t *testing.T) {
	specs := []JobSpec{
		{At: 0, Job: makeJob("a", 4, 4, 256)},
		{At: 0, Job: makeJob("b", 4, 4, 256)},
		{At: 0, Job: makeJob("c", 4, 4, 256)},
		{At: 0, Job: makeJob("d", 16, 4, 256)}, // capped to Share
		{At: 0, Job: makeJob("e", 4, 4, 256)},  // must wait: 0 ranks free
	}
	ct, err := Run(cc16(), Policy{Kind: FixedShare, Share: 4}, specs)
	if err != nil {
		t.Fatal(err)
	}
	var minFinish des.Time
	for id := 0; id < 4; id++ {
		j := jobByID(ct, id)
		if j.Admit != 0 {
			t.Errorf("job %d admitted at %v, want 0 (16 ranks / share 4 = 4 concurrent)", id, j.Admit)
		}
		if j.Granted != 4 {
			t.Errorf("job %d granted %d ranks, want share cap 4", id, j.Granted)
		}
		if minFinish == 0 || j.Finish < minFinish {
			minFinish = j.Finish
		}
	}
	e := jobByID(ct, 4)
	if e.Admit < minFinish {
		t.Errorf("fifth gang admitted at %v with zero free ranks (first finish %v)", e.Admit, minFinish)
	}
	if e.Admit != minFinish {
		t.Errorf("fifth gang admitted at %v, want exactly the first completion %v", e.Admit, minFinish)
	}
}

// TestMinGangValidation covers the named-error paths for gangs that can
// never exist: MinGang above the request, and requests (or floors) above
// the whole cluster.
func TestMinGangValidation(t *testing.T) {
	// MinGang larger than the request.
	_, err := Run(cc16(), Policy{Kind: WeightedFair},
		[]JobSpec{{At: 0, Job: makeJob("m", 8, 4, 64), MinGang: 9}})
	if !errors.Is(err, ErrBadMinGang) {
		t.Errorf("MinGang 9 of want 8: err=%v, want ErrBadMinGang", err)
	}
	// MinGang larger than the cluster — the request must be at least as
	// large, so the gang-too-big check fires first.
	_, err = Run(cc16(), Policy{Kind: WeightedFair},
		[]JobSpec{{At: 0, Job: makeJob("g", 20, 4, 64), MinGang: 20}})
	if !errors.Is(err, ErrGangTooBig) {
		t.Errorf("MinGang 20 on 16 ranks: err=%v, want ErrGangTooBig", err)
	}
	// Same paths through the incremental API.
	s, err := New(cc16(), Policy{Kind: WeightedFair})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Register(JobSpec{Job: makeJob("m", 8, 4, 64), MinGang: 9}); !errors.Is(err, ErrBadMinGang) {
		t.Errorf("incremental MinGang 9 of 8: err=%v, want ErrBadMinGang", err)
	}
	if _, err := s.Register(JobSpec{Job: makeJob("g", 20, 4, 64), MinGang: 20}); !errors.Is(err, ErrGangTooBig) {
		t.Errorf("incremental MinGang 20 on 16 ranks: err=%v, want ErrGangTooBig", err)
	}
}

// TestIncrementalSubmitCancel drives the online API directly: submissions
// at engine time, lifecycle hooks, cancellation of a queued job, and the
// cancelled job's absence from the trace.
func TestIncrementalSubmitCancel(t *testing.T) {
	s, err := New(cc16(), Policy{Kind: FIFOExclusive})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var started, done []int
	s.OnStart = func(id int, gang []int) { started = append(started, id) }
	s.OnDone = func(id int, _ core.Runnable, tr *core.Trace, err error) {
		if err != nil {
			t.Errorf("job %d failed: %v", id, err)
		}
		done = append(done, id)
	}
	s.Engine().Spawn("driver", func(p *des.Proc) {
		id0, err := s.Submit(JobSpec{Job: makeJob("first", 8, 8, 256)})
		if err != nil {
			t.Errorf("submit first: %v", err)
		}
		if s.Running() != 1 || s.QueueLen() != 0 {
			t.Errorf("after first: running %d queue %d, want 1/0", s.Running(), s.QueueLen())
		}
		p.Sleep(des.Millisecond)
		id1, err := s.Submit(JobSpec{Job: makeJob("second", 4, 4, 256)})
		if err != nil {
			t.Errorf("submit second: %v", err)
		}
		if s.QueueLen() != 1 {
			t.Errorf("second not queued under fifo-exclusive: queue %d", s.QueueLen())
		}
		if s.Cancel(id0) {
			t.Error("cancelled a running job")
		}
		if !s.Cancel(id1) {
			t.Error("could not cancel a queued job")
		}
		if s.Cancel(id1) {
			t.Error("double-cancel succeeded")
		}
		if s.Cancel(42) {
			t.Error("cancelled an unknown id")
		}
	})
	makespan := s.Run()
	ct := s.Trace(makespan)
	if len(ct.Jobs) != 1 || ct.Jobs[0].Name != "first" {
		t.Fatalf("trace should hold only the uncancelled job: %v", ct.String())
	}
	if len(started) != 1 || started[0] != 0 || len(done) != 1 || done[0] != 0 {
		t.Fatalf("hooks: started %v done %v, want [0]/[0]", started, done)
	}
}
