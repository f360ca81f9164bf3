package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
)

// TestWeightContract pins the validation boundary ErrBadWeight describes:
// zero is accepted and defaults to 1, negatives are rejected, and the
// error text names the actual contract (a regression guard — the message
// used to claim ">= 1" while zero was silently accepted).
func TestWeightContract(t *testing.T) {
	if !strings.Contains(ErrBadWeight.Error(), ">= 0") {
		t.Errorf("ErrBadWeight text %q does not state the >= 0 contract", ErrBadWeight)
	}
	cases := []struct {
		name    string
		weight  int
		wantErr error
	}{
		{"zero defaults to one", 0, nil},
		{"negative rejected", -1, ErrBadWeight},
		{"one accepted", 1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ct, err := Run(cc16(), Policy{Kind: WeightedFair},
				[]JobSpec{{At: 0, Job: makeJob("w", 4, 4, 64), Weight: tc.weight}})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("weight %d: err=%v, want %v", tc.weight, err, tc.wantErr)
			}
			if err != nil {
				return
			}
			if w := ct.Jobs[0].Weight; w != 1 && tc.weight == 0 {
				t.Errorf("weight 0 recorded as %d, want default 1", w)
			}
		})
	}
}

// TestClassOrdering: a later-arriving Interactive submission overtakes a
// queued Batch one — classes order the queue, arrival order breaks ties
// within a class.
func TestClassOrdering(t *testing.T) {
	specs := []JobSpec{
		{At: 0, Job: makeJob("runner", 4, 8, 512)},
		{At: des.Millisecond, Job: makeJob("batch", 4, 4, 128)},
		{At: 2 * des.Millisecond, Job: makeJob("inter", 4, 4, 128), Class: Interactive},
	}
	ct, err := Run(cc16(), Policy{Kind: FIFOExclusive}, specs)
	if err != nil {
		t.Fatal(err)
	}
	batch, inter := jobByID(ct, 1), jobByID(ct, 2)
	if inter.Admit >= batch.Admit {
		t.Errorf("interactive admitted %v, after batch at %v — class ordering ignored", inter.Admit, batch.Admit)
	}
	if inter.Class != Interactive || batch.Class != Batch {
		t.Errorf("classes not recorded: inter=%v batch=%v", inter.Class, batch.Class)
	}
}

// TestDeadlineAdmission: an impossible deadline is rejected at arrival;
// with DowngradeOnMiss it is demoted to Batch and still runs; a generous
// deadline is admitted untouched and met.
func TestDeadlineAdmission(t *testing.T) {
	t.Run("reject", func(t *testing.T) {
		ct, err := Run(cc16(), Policy{Kind: WeightedFair}, []JobSpec{
			{At: 0, Job: makeJob("tight", 4, 4, 256), Class: Interactive, Deadline: des.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ct.Jobs) != 0 || len(ct.Rejected) != 1 {
			t.Fatalf("jobs %d rejected %d, want 0/1", len(ct.Jobs), len(ct.Rejected))
		}
		rej := &ct.Rejected[0]
		if rej.Class != Interactive || rej.Deadline != des.Microsecond {
			t.Errorf("rejected record lost identity: %+v", rej)
		}
		if !strings.Contains(ct.String(), "rej") {
			t.Errorf("trace does not render the rejection:\n%s", ct)
		}
	})
	t.Run("downgrade", func(t *testing.T) {
		ct, err := Run(cc16(), Policy{Kind: WeightedFair}, []JobSpec{
			{At: 0, Job: makeJob("soft", 4, 4, 256), Class: Interactive, Deadline: des.Microsecond, DowngradeOnMiss: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ct.Jobs) != 1 || len(ct.Rejected) != 0 {
			t.Fatalf("jobs %d rejected %d, want 1/0", len(ct.Jobs), len(ct.Rejected))
		}
		j := &ct.Jobs[0]
		if !j.Downgraded || j.Class != Batch {
			t.Errorf("predicted-miss not demoted: downgraded=%v class=%v", j.Downgraded, j.Class)
		}
	})
	t.Run("feasible", func(t *testing.T) {
		ct, err := Run(cc16(), Policy{Kind: WeightedFair}, []JobSpec{
			{At: 0, Job: makeJob("easy", 4, 4, 256), Class: Interactive, Deadline: des.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		j := &ct.Jobs[0]
		if j.Downgraded || j.Class != Interactive {
			t.Errorf("feasible job demoted: downgraded=%v class=%v", j.Downgraded, j.Class)
		}
		if !j.Met() {
			t.Errorf("feasible deadline missed: lat %v, ddl %v", j.Latency(), j.Deadline)
		}
		stats := ct.SLOByClass()[Interactive]
		if stats == nil || stats.Met != 1 || stats.Jobs != 1 {
			t.Errorf("SLOByClass: %+v, want 1/1 met", stats)
		}
	})
	t.Run("validation", func(t *testing.T) {
		_, err := Run(cc16(), Policy{Kind: WeightedFair}, []JobSpec{
			{At: 0, Job: makeJob("bad", 4, 4, 64), Deadline: -des.Second},
		})
		if !errors.Is(err, ErrBadDeadline) {
			t.Errorf("negative deadline: err=%v, want ErrBadDeadline", err)
		}
		_, err = Run(cc16(), Policy{Kind: WeightedFair}, []JobSpec{
			{At: 0, Job: makeJob("bad", 4, 4, 64), Class: Class(9)},
		})
		if !errors.Is(err, ErrBadClass) {
			t.Errorf("unknown class: err=%v, want ErrBadClass", err)
		}
		_, err = Run(cc16(), Policy{Kind: FIFOExclusive, Preempt: true},
			[]JobSpec{{At: 0, Job: makeJob("p", 4, 4, 64)}})
		if !errors.Is(err, ErrBadPreempt) {
			t.Errorf("FIFO+Preempt: err=%v, want ErrBadPreempt", err)
		}
	})
}

// starvationStream is the backfill-starvation fixture: a long job holds
// half the cluster, an unfittable head needs the whole machine, and a
// steady stream of 4-rank jobs keeps arriving. Plain backfill lets the
// stream relay-hold the ranks so the head starves until the stream runs
// dry; the EASY reservation gates stream jobs that would overrun the
// head's reserved start.
func starvationStream() []JobSpec {
	specs := []JobSpec{
		{At: 0, Job: makeJob("long", 8, 16, 512), MinGang: 8},
		{At: des.Millisecond, Job: makeJob("head", 16, 4, 256), MinGang: 16},
	}
	for i := 0; i < 10; i++ {
		at := des.Millisecond/2 + des.Time(i)*des.Millisecond/2
		specs = append(specs, JobSpec{At: at, Job: makeJob("small", 4, 4, 256), MinGang: 4})
	}
	return specs
}

// TestReservationPreventsBackfillStarvation is the regression pair: the
// control run (old skip-ahead backfill, no reservation) starves the head
// behind the small-job stream; Policy.Reserve bounds the head's wait by
// its reserved start, admitting it strictly earlier and pushing at least
// part of the stream behind it.
func TestReservationPreventsBackfillStarvation(t *testing.T) {
	ctrl, err := Run(cc16(), Policy{Kind: WeightedFair}, starvationStream())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cc16(), Policy{Kind: WeightedFair, Reserve: true}, starvationStream())
	if err != nil {
		t.Fatal(err)
	}
	headCtrl, headRes := jobByID(ctrl, 1), jobByID(res, 1)
	// The control demonstrates the starvation the reservation exists to
	// fix: the head cannot start until the whole stream has drained past
	// it (every small admitted before the head).
	for _, j := range ctrl.Jobs {
		if j.Name == "small" && j.Admit > headCtrl.Admit {
			t.Errorf("control fixture broken: small (id %d) admitted %v after head %v — no starvation to fix",
				j.ID, j.Admit, headCtrl.Admit)
		}
	}
	if headRes.Admit >= headCtrl.Admit {
		t.Errorf("reservation did not help the head: admit %v with Reserve, %v without", headRes.Admit, headCtrl.Admit)
	}
	// With the reservation, the tail of the stream is gated behind the
	// head instead of overtaking it.
	gated := 0
	for _, j := range res.Jobs {
		if j.Name == "small" && j.Admit > headRes.Admit {
			gated++
		}
	}
	if gated == 0 {
		t.Error("Reserve run admitted every stream job ahead of the head — nothing was gated")
	}
}

// TestClassPreemption: an Interactive arrival checkpoint-preempts the
// Batch gang holding the whole cluster; the victim drains at a chunk
// boundary, requeues, restarts from scratch, and still produces the
// complete (uncorrupted) result.
func TestClassPreemption(t *testing.T) {
	mk := func() (batch *core.Scheduled[uint32], specs []JobSpec) {
		// 4 chunks per rank: the quiesce lands at a real chunk boundary
		// well before the job's natural end.
		batch = makeJob("batch", 16, 64, 512)
		specs = []JobSpec{
			{At: 0, Job: batch},
			{At: des.Millisecond, Job: makeJob("inter", 8, 8, 256), MinGang: 8, Class: Interactive},
		}
		return
	}
	_, ctrlSpecs := mk()
	ctrl, err := Run(cc16(), Policy{Kind: WeightedFair}, ctrlSpecs)
	if err != nil {
		t.Fatal(err)
	}
	ctrlInter := jobByID(ctrl, 1)
	batchJob, specs := mk()
	ct, err := Run(cc16(), Policy{Kind: WeightedFair, Preempt: true}, specs)
	if err != nil {
		t.Fatal(err)
	}
	batch, inter := jobByID(ct, 0), jobByID(ct, 1)
	if batch.Preempts != 1 {
		t.Errorf("batch preempted %d times, want 1", batch.Preempts)
	}
	if inter.Admit >= batch.Finish {
		t.Errorf("interactive never overlapped the preempted batch: admit %v, batch finish %v", inter.Admit, batch.Finish)
	}
	if inter.Admit >= ctrlInter.Admit {
		t.Errorf("preemption did not admit interactive earlier: %v with Preempt, %v without", inter.Admit, ctrlInter.Admit)
	}
	// Restart-from-scratch correctness: the final launch's result is the
	// complete job, as if never interrupted.
	if batchJob.Result == nil {
		t.Fatal("preempted batch job has no result")
	}
	total := 0
	for _, pr := range batchJob.Result.PerRank {
		total += pr.Len()
	}
	if total != 64*512 {
		t.Errorf("preempted+restarted job produced %d pairs, want %d", total, 64*512)
	}
	if batch.Trace == nil || batch.Trace.Preempted {
		t.Errorf("final trace should be a completed (non-preempted) launch: %+v", batch.Trace)
	}
}

// TestElasticGrowBack: under Policy.Preempt, a WeightedFair job molded
// onto 2 idle ranks is checkpointed and relaunched on a wider gang once
// the big job frees the cluster — only when it opted in via
// JobSpec.Elastic.
func TestElasticGrowBack(t *testing.T) {
	mk := func(elastic bool) (b *core.Scheduled[uint32], specs []JobSpec) {
		b = makeJob("b", 8, 8, 512)
		specs = []JobSpec{
			{At: 0, Job: makeJob("a", 14, 28, 512), MinGang: 14},
			{At: des.Millisecond, Job: b, Elastic: elastic},
		}
		return
	}
	_, ctrlSpecs := mk(false)
	ctrl, err := Run(cc16(), Policy{Kind: WeightedFair, Preempt: true}, ctrlSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if bc := jobByID(ctrl, 1); bc.Granted != 2 || bc.Preempts != 0 {
		t.Fatalf("control: non-elastic job got %d ranks with %d preempts, want molded 2/0", bc.Granted, bc.Preempts)
	}
	bJob, specs := mk(true)
	ct, err := Run(cc16(), Policy{Kind: WeightedFair, Preempt: true}, specs)
	if err != nil {
		t.Fatal(err)
	}
	b := jobByID(ct, 1)
	if b.Preempts != 1 {
		t.Fatalf("elastic job checkpointed %d times, want 1", b.Preempts)
	}
	if b.Granted <= 2 {
		t.Errorf("grow-back relaunched on %d ranks, want wider than the molded 2", b.Granted)
	}
	if bJob.Result == nil {
		t.Fatal("grown job has no result")
	}
	total := 0
	for _, pr := range bJob.Result.PerRank {
		total += pr.Len()
	}
	if total != 8*512 {
		t.Errorf("grown job produced %d pairs, want %d", total, 8*512)
	}
}

// TestPreemptCancelRunningJob drives the incremental API: PreemptCancel
// reaches a RUNNING job (Cancel never does), the gang frees at the next
// chunk boundary, OnRequeue(id, true) fires instead of OnDone, and the
// job is excluded from the trace like any cancelled submission.
func TestPreemptCancelRunningJob(t *testing.T) {
	s, err := New(cc16(), Policy{Kind: WeightedFair, Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var requeued []int
	var requeueCancelled []bool
	var done []int
	s.OnRequeue = func(id int, cancelled bool) {
		requeued = append(requeued, id)
		requeueCancelled = append(requeueCancelled, cancelled)
	}
	s.OnDone = func(id int, _ core.Runnable, tr *core.Trace, err error) { done = append(done, id) }
	s.Engine().Spawn("driver", func(p *des.Proc) {
		id, err := s.Submit(JobSpec{Job: makeJob("victim", 8, 16, 512)})
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		if s.Cancel(id) {
			t.Error("Cancel reached a running job")
		}
		p.Sleep(des.Millisecond)
		if !s.PreemptCancel(id) {
			t.Error("PreemptCancel refused a running job")
		}
		if s.PreemptCancel(id) {
			t.Error("double PreemptCancel succeeded while quiescing")
		}
		if s.PreemptCancel(42) {
			t.Error("PreemptCancel accepted an unknown id")
		}
	})
	makespan := s.Run()
	if len(requeued) != 1 || requeued[0] != 0 || !requeueCancelled[0] {
		t.Fatalf("OnRequeue: ids %v cancelled %v, want [0]/[true]", requeued, requeueCancelled)
	}
	if len(done) != 0 {
		t.Errorf("OnDone fired for a preempt-cancelled job: %v", done)
	}
	if s.FreeRanks() != s.Cluster().Ranks() {
		t.Errorf("gang not released: %d free of %d", s.FreeRanks(), s.Cluster().Ranks())
	}
	if ct := s.Trace(makespan); len(ct.Jobs) != 0 {
		t.Errorf("preempt-cancelled job still in trace: %v", ct.String())
	}
}

// TestSLOShardInvariance: the SLO machinery must keep the sharded DES
// backend bit-identical to the single-engine run — preemption and
// grow-back route through the same hub->home post edges as launches.
func TestSLOShardInvariance(t *testing.T) {
	mk := func() []JobSpec {
		return []JobSpec{
			{At: 0, Job: makeJob("batch", 16, 64, 512)},
			{At: des.Millisecond, Job: makeJob("inter", 8, 8, 256), MinGang: 8, Class: Interactive,
				Deadline: des.Second},
		}
	}
	runWith := func(shards int) string {
		cc := cc16()
		cc.Shards = shards
		ct, err := Run(cc, Policy{Kind: WeightedFair, Preempt: true, Reserve: true}, mk())
		if err != nil {
			t.Fatal(err)
		}
		return ct.String()
	}
	one, four := runWith(1), runWith(4)
	if one != four {
		t.Errorf("SLO run not shard-invariant:\n--- 1 shard\n%s--- 4 shards\n%s", one, four)
	}
}
