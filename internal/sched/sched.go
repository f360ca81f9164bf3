package sched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
)

// JobSpec is one submission to the scheduler.
type JobSpec struct {
	// At is the job's arrival time in the simulation.
	At des.Time
	// Job is the work itself; wrap a core.Job in a core.Scheduled.
	Job core.Runnable
	// Weight biases WeightedFair gang sizing (default 1; ignored by the
	// other policies).
	Weight int
	// MinGang is the smallest gang the job accepts when WeightedFair
	// molds it onto idle ranks (default 1; ignored by the other
	// policies).
	MinGang int
	// Class is the job's service class (default Batch). Higher classes
	// queue ahead of lower ones and, under Policy.Preempt, may
	// checkpoint-preempt running lower-class gangs.
	Class Class
	// Deadline is the job's completion SLO relative to arrival (0 =
	// none). At arrival the cost model predicts queue wait plus service
	// (every job gets a predicted start: the whole machine is idle once
	// every running gang has released), and a job predicted to miss is
	// rejected — or demoted to Batch when DowngradeOnMiss is set.
	Deadline des.Time
	// DowngradeOnMiss demotes a predicted-miss job to Batch instead of
	// rejecting it. The deadline is kept for attainment reporting.
	DowngradeOnMiss bool
	// Elastic opts the job into grow-back (under Policy.Preempt): when it was
	// molded below its fair share and ranks later idle, it may be
	// checkpointed and relaunched on a wider gang.
	Elastic bool
}

// jobRec tracks one submission through the scheduler: the JobSpec's
// fields with their defaults applied, then what admission did with it.
type jobRec struct {
	// JobTrace is the part of the record Scheduler.Trace reports as is:
	// identity, request, gang, SLO outcome and the three timestamps.
	// Granted stays zero here; Trace fills it from the gang.
	JobTrace
	job     core.Runnable
	minGang int

	downgrade bool // JobSpec.DowngradeOnMiss
	elastic   bool // JobSpec.Elastic

	leased    []int // gang plus surplus ranks held idle (sharded whole-node leases)
	waiting   bool  // in the queue; written by setState only
	running   bool  // holding a gang; written by setState only
	cancelled bool  // pulled from the queue before admission, or preempt-cancelled
	rejected  bool  // turned away at arrival by the SLO admission check
	err       error // LaunchOn failure, job never ran

	// SLO machinery. ests memoises the cost model per gang size (see
	// estimate). quiescing marks a launch asked to checkpoint-preempt;
	// qCancel and growPending record why, so requeue knows whether the
	// job is being cancelled, grown (floorGang forces the relaunch wider),
	// or restarted behind a higher class.
	ests        []gangEst
	quiescing   bool
	qCancel     bool
	growPending bool
	floorGang   int
}

// Scheduler is the incremental admission engine: jobs are submitted to a
// live engine one at a time, at the moment they arrive, rather than as a
// closed batch known up front. It owns the simulation it schedules — New
// builds the engine (or shard set) and the cluster from one
// cluster.Config — so this package is the only place an engine mode is
// chosen. The package-level Run is the batch wrapper; the online serving
// layer (internal/serve) drives this API directly through NewInjector.
// Apart from New, Run, NewInjector and Close, all methods must be called
// at engine time (from a simulated process or an injected closure) — the
// Scheduler is engine-confined state, not a thread-safe object.
type Scheduler struct {
	eng *des.Engine // the hub: shard 0 of ss, or the only engine
	cl  *cluster.Cluster
	pol Policy

	// Idle ranks, written by setFree only: by global rank, counted per
	// node, and in total.
	free     []bool
	nodeFree []int
	nFree    int

	queue   []*jobRec // pending, arrival order
	recs    []*jobRec // all, submission order
	launchE error     // first LaunchOn failure, reported after a batch run

	// What the admission pass reads instead of walking recs, written by
	// setState only: the jobs holding gangs in ascending ID order (the
	// order a walk over recs met them in), and the summed weight of every
	// job in the system, running or waiting.
	running []*jobRec
	demand  int

	// Sharded dispatch (nil ss = same-engine launches): jobs are homed on
	// engines 1..N-1 by their gang's lowest node ID (all on the hub when
	// N = 1), launched through a hub->home post carrying launchLat (the
	// job dispatch overhead — MPI wireup plus context creation — which
	// doubles as the outbound lookahead) and completed through a
	// home->hub post carrying doneLat (one fabric latency). Sharded
	// placement leases whole nodes, so concurrent gangs never share a
	// NIC, a PCIe link, or a host CPU: surplus ranks on a gang's last
	// node stay idle until the job finishes.
	ss        *des.ShardSet
	launchLat des.Time
	doneLat   des.Time

	// OnStart, if set, fires when a job is placed on its gang; OnDone
	// fires after its gang is released — with the finished job (to read
	// its output from) and its trace, or with a non-nil error if the
	// launch itself failed (the job never ran). Cancelled jobs fire
	// neither. OnRequeue fires when a running job is checkpoint-preempted:
	// cancelled=false means it re-entered the queue (preemption or elastic
	// grow-back), true means PreemptCancel tore it down. All run at engine
	// time, with every rank either idle or leased by a running job.
	OnStart   func(id int, gang []int)
	OnDone    func(id int, job core.Runnable, tr *core.Trace, err error)
	OnRequeue func(id int, cancelled bool)
}

// New builds the simulated machine cc describes — one engine, or the
// shard set cc.ShardCount() asks for, with cc.Obs attached — and an
// incremental scheduler over it under pol. Cluster errors wrap
// ErrBadCluster; submissions are validated one by one as they arrive.
// The caller must Close the scheduler once Run has returned.
func New(cc cluster.Config, pol Policy) (*Scheduler, error) {
	if err := cc.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCluster, err)
	}
	if err := pol.Validate(cc.GPUs); err != nil {
		return nil, err
	}
	s := &Scheduler{pol: pol, free: make([]bool, cc.GPUs)}
	if n := cc.ShardCount(); n > 0 {
		s.ss = des.NewShardSet(n)
		s.ss.SetRecorder(cc.Obs)
		s.eng = s.ss.Engine(0)
		s.launchLat, s.doneLat = cluster.DefaultLaunchOverhead, cc.Fabric.Latency
		for k := 1; k < n; k++ {
			s.ss.DeclareEdge(0, k, s.launchLat)
			s.ss.DeclareEdge(k, 0, s.doneLat)
		}
	} else {
		s.eng = des.NewEngine()
		s.eng.SetRecorder(cc.Obs)
	}
	s.cl = cluster.New(s.eng, cc)
	s.nodeFree = make([]int, len(s.cl.Nodes))
	for r := range s.free {
		s.setFree(r, true)
	}
	return s, nil
}

// Engine returns the hub engine: where arrivals, the admission scan and
// every scheduler hook run.
func (s *Scheduler) Engine() *des.Engine { return s.eng }

// Cluster returns the simulated machine.
func (s *Scheduler) Cluster() *cluster.Cluster { return s.cl }

// NewInjector opens an injection handle on the hub. Must be called
// before Run.
func (s *Scheduler) NewInjector() *des.Injector { return s.eng.NewInjector() }

// Run drives the simulation to completion and returns the makespan.
func (s *Scheduler) Run() des.Time {
	if s.ss != nil {
		return s.ss.Run()
	}
	return s.eng.Run()
}

// Close releases the cluster's kernel-execution backend.
func (s *Scheduler) Close() { s.cl.Close() }

// hubKey is the stable post-ordering identity of the scheduler hub itself;
// gangs use their lowest node ID, which is always >= 0.
const hubKey = -1

// homeOf picks the engine a gang runs on: a stable function of the gang's
// lowest node ID, so the assignment — and with it every post stamp — does
// not depend on admission interleaving.
func (s *Scheduler) homeOf(gang []int) int {
	n := s.ss.Shards()
	if n == 1 {
		return 0
	}
	return 1 + s.cl.NodeOfRank(gang[0]).ID%(n-1)
}

// validateSpec checks one submission with named errors.
func validateSpec(sp JobSpec, totalRanks int) error {
	if sp.Job == nil {
		return ErrNilJob
	}
	name := sp.Job.RunName()
	if sp.At < 0 {
		return fmt.Errorf("%w: job %q arrives at %v", ErrBadArrival, name, sp.At)
	}
	if sp.Weight < 0 {
		return fmt.Errorf("%w: job %q has weight %d", ErrBadWeight, name, sp.Weight)
	}
	if sp.Class < Batch || sp.Class > Interactive {
		return fmt.Errorf("%w: job %q has class %d", ErrBadClass, name, int(sp.Class))
	}
	if sp.Deadline < 0 {
		return fmt.Errorf("%w: job %q has deadline %v", ErrBadDeadline, name, sp.Deadline)
	}
	want := sp.Job.GangWant()
	if want > totalRanks {
		return fmt.Errorf("%w: job %q wants %d of %d ranks", ErrGangTooBig, name, want, totalRanks)
	}
	if sp.MinGang < 0 || sp.MinGang > want {
		return fmt.Errorf("%w: job %q MinGang %d, want %d", ErrBadMinGang, name, sp.MinGang, want)
	}
	if err := sp.Job.ValidateJob(); err != nil {
		return fmt.Errorf("sched: job %q: %w", name, err)
	}
	return nil
}

// validateSpecs checks every submission up front with named errors, so a
// bad queue never reaches the simulation.
func validateSpecs(specs []JobSpec, totalRanks int) error {
	if len(specs) == 0 {
		return ErrNoJobs
	}
	for i, sp := range specs {
		if err := validateSpec(sp, totalRanks); err != nil {
			if sp.Job == nil {
				return fmt.Errorf("%w (submission %d)", err, i)
			}
			return err
		}
	}
	return nil
}

// register creates the record for one submission; arrival is provisional
// until arrive runs (Run registers whole batches up front so job IDs follow
// submission order even when arrivals are out of order).
func (s *Scheduler) register(sp JobSpec) *jobRec {
	rec := &jobRec{job: sp.Job, minGang: sp.MinGang, downgrade: sp.DowngradeOnMiss, elastic: sp.Elastic,
		JobTrace: JobTrace{ID: len(s.recs), Name: sp.Job.RunName(), Want: sp.Job.GangWant(),
			Weight: sp.Weight, Arrival: sp.At, Class: sp.Class, Deadline: sp.Deadline}}
	if rec.Weight == 0 {
		rec.Weight = 1
	}
	if rec.minGang == 0 {
		rec.minGang = 1
	}
	s.recs = append(s.recs, rec)
	return rec
}

// setState moves rec between idle, waiting and running. It is the only
// writer of rec.waiting and rec.running and of the two aggregates derived
// from them, so every transition — arrive, start, finish, requeue, cancel
// — costs the same few steps however many jobs came before.
func (s *Scheduler) setState(rec *jobRec, waiting, running bool) {
	switch was, is := rec.waiting || rec.running, waiting || running; {
	case is && !was:
		s.demand += rec.Weight
	case was && !is:
		s.demand -= rec.Weight
	}
	if running != rec.running {
		i, _ := slices.BinarySearchFunc(s.running, rec.ID, func(r *jobRec, id int) int { return r.ID - id })
		if running {
			s.running = slices.Insert(s.running, i, rec)
		} else {
			s.running = slices.Delete(s.running, i, i+1)
		}
	}
	rec.waiting, rec.running = waiting, running
}

// setFree marks global rank r idle or busy.
func (s *Scheduler) setFree(r int, free bool) {
	d := 1
	if !free {
		d = -1
	}
	s.free[r] = free
	s.nodeFree[s.cl.NodeOfRank(r).ID] += d
	s.nFree += d
}

// arrive enters a registered job into the admission queue at the current
// simulated time, running the SLO admission check first when the job
// carries a deadline.
func (s *Scheduler) arrive(rec *jobRec) {
	rec.Arrival = s.eng.Now()
	if rec.Deadline > 0 {
		if s.predictLatency(rec) > rec.Deadline {
			if !rec.downgrade {
				rec.rejected = true
				if r := s.cl.Obs; r.Enabled() {
					r.Emit(int64(rec.Arrival), obs.CatSim, "sched/"+rec.Name, "slo.reject",
						obs.A("class", rec.Class.String()))
				}
				return
			}
			rec.Downgraded = true
			rec.Class = Batch
		}
	}
	s.setState(rec, true, false)
	s.enqueue(rec)
	s.admit()
}

// enqueue inserts rec by service class — ahead of every strictly lower
// class, behind its own (stable within a class, so an all-Batch stream
// keeps exact arrival order and the pre-class queue behaviour).
func (s *Scheduler) enqueue(rec *jobRec) {
	i := len(s.queue)
	for i > 0 && s.queue[i-1].Class < rec.Class {
		i--
	}
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = rec
}

// Register validates and records one job arriving now, returning its ID,
// WITHOUT entering it into the admission queue — Arrive does that. The
// split lets a caller index its own bookkeeping by the ID before
// admission hooks (OnStart can fire synchronously from Arrive) need it.
// Must be called at engine time.
func (s *Scheduler) Register(sp JobSpec) (int, error) {
	sp.At = s.eng.Now()
	if err := validateSpec(sp, s.cl.Ranks()); err != nil {
		return 0, err
	}
	return s.register(sp).ID, nil
}

// Arrive enters a registered job into the admission queue at the current
// simulated time and reports what the SLO admission check did with it:
// rejected (the job never queued) or downgraded to Batch. Must be called
// at engine time, exactly once per registered ID.
func (s *Scheduler) Arrive(id int) (rejected, downgraded bool) {
	rec := s.recs[id]
	if rec.waiting || rec.running || rec.cancelled || rec.rejected || rec.Trace != nil || rec.err != nil {
		panic(fmt.Sprintf("sched: Arrive(%d) on a job that already arrived", id))
	}
	s.arrive(rec)
	return rec.rejected, rec.Downgraded
}

// Submit is Register followed by Arrive: validate and admit one job
// arriving now. Must be called at engine time.
func (s *Scheduler) Submit(sp JobSpec) (int, error) {
	id, err := s.Register(sp)
	if err != nil {
		return 0, err
	}
	s.Arrive(id)
	return id, nil
}

// Cancel withdraws a queued job. It reports false when the job is already
// running, finished, cancelled, or unknown — admission is the point of no
// return; a gang once placed runs to completion. Cancelled jobs are
// excluded from the ClusterTrace (they consumed no cluster time) and fire
// no OnDone.
func (s *Scheduler) Cancel(id int) bool {
	if id < 0 || id >= len(s.recs) {
		return false
	}
	rec := s.recs[id]
	if !rec.waiting || rec.cancelled {
		return false
	}
	for i, q := range s.queue {
		if q == rec {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.setState(rec, false, false)
	rec.cancelled = true
	if r := s.cl.Obs; r.Enabled() {
		r.Emit(int64(s.eng.Now()), obs.CatSim, "sched/"+rec.Name, "cancel")
	}
	return true
}

// QueueLen is the number of jobs waiting for admission.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Running is the number of jobs currently holding gangs.
func (s *Scheduler) Running() int { return len(s.running) }

// FreeRanks is the number of idle GPU ranks.
func (s *Scheduler) FreeRanks() int { return s.nFree }

// Trace assembles the cluster-level record of everything admitted so far.
// Cancelled jobs are skipped: they never touched the cluster, and a
// replayed stream that re-cancels them produces the identical trace.
func (s *Scheduler) Trace(makespan des.Time) *ClusterTrace {
	ct := &ClusterTrace{Policy: s.pol, Ranks: s.cl.Ranks(), Makespan: makespan}
	for _, rec := range s.recs {
		if rec.cancelled {
			continue
		}
		jt := rec.JobTrace
		jt.Granted = len(rec.Gang)
		if rec.rejected {
			ct.Rejected = append(ct.Rejected, jt)
			continue
		}
		ct.Jobs = append(ct.Jobs, jt)
	}
	return ct
}

// Run simulates the submitted jobs on one shared cluster under the policy
// and returns the cluster-level trace. Everything is deterministic: the
// same cluster, policy, and submissions produce a bit-identical trace.
func Run(cc cluster.Config, pol Policy, specs []JobSpec) (*ClusterTrace, error) {
	s, err := New(cc, pol)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := validateSpecs(specs, cc.GPUs); err != nil {
		return nil, err
	}
	for _, sp := range specs {
		s.register(sp)
	}
	// Arrivals enter the queue in time order; submission order breaks
	// ties, so the stream is reproducible. They are boundary work
	// (des/doc.go, "Boundary ordering"), landing where a live injection or
	// a replayed record stamped with the same time does.
	arrivals := append([]*jobRec(nil), s.recs...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Arrival < arrivals[j].Arrival })
	s.eng.Spawn("sched.arrivals", func(p *des.Proc) {
		for _, rec := range arrivals {
			p.SleepLate(rec.Arrival - p.Now())
			s.arrive(rec)
		}
	})
	makespan := s.Run()
	if s.launchE != nil {
		return nil, s.launchE
	}
	return s.Trace(makespan), nil
}

// admit scans the queue in order, starting every job the policy lets onto
// the idle ranks. Called on each arrival and each completion (including
// preemption requeues). A blocked head may trigger class preemption
// (Policy.Preempt) or take an EASY reservation (Policy.Reserve) that
// gates backfill behind its predicted start; with the queue drained,
// Policy.Preempt also looks for a molded gang worth growing back.
func (s *Scheduler) admit() {
	var resAt des.Time
	reserved := false
	i := 0
	for i < len(s.queue) {
		if i > 0 && s.nFree == 0 {
			// Past the head nothing can start: every policy's smallest gang
			// is one rank. The head itself is always looked at, because a
			// blocked head preempts and reserves.
			break
		}
		rec := s.queue[i]
		size, ok := s.gangFor(rec)
		if !ok {
			if !s.pol.backfills() {
				return
			}
			if i == 0 {
				if s.pol.Preempt && s.preemptFor(rec) {
					// Victims are draining; hold every admission until
					// their requeue re-runs admit, so backfill cannot
					// steal the ranks being freed for the head.
					return
				}
				if s.pol.Reserve {
					need, _ := s.gangRange(rec)
					resAt, reserved = s.reserveStart(need), true
				}
			}
			i++
			continue
		}
		if reserved && i > 0 {
			// EASY gate: a later job may only jump the blocked head if it
			// provably (by the same cost model) finishes before the head's
			// reserved start.
			if s.eng.Now()+s.estimate(rec, size) > resAt {
				i++
				continue
			}
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.start(rec, size, i > 0)
	}
	if s.pol.Preempt && len(s.queue) == 0 {
		s.growBack()
	}
}

// gangRange is the one statement of each policy's gang rule: rec may
// start once need ranks are idle and runs on want of them. FIFOExclusive
// needs the whole machine idle (one tenant at a time; the idle remainder
// stays reserved) and runs on the request; FixedShare caps both at Share;
// WeightedFair needs its moldable floor — MinGang, or for a grow-back
// relaunch a size strictly wider than the gang it gave up — and wants its
// request.
func (s *Scheduler) gangRange(rec *jobRec) (need, want int) {
	switch s.pol.Kind {
	case FIFOExclusive:
		return s.cl.Ranks(), rec.Want
	case FixedShare:
		size := min(rec.Want, s.pol.Share)
		return size, size
	default: // WeightedFair
		floor := max(rec.minGang, rec.floorGang)
		return max(min(floor, rec.Want), 1), rec.Want
	}
}

// gangFor decides whether rec can start now and with how many ranks: not
// while fewer than gangRange's need are idle, and then on its want —
// except that WeightedFair sizes the gang by fair share against every job
// in the system and molds it onto the idle ranks rather than wait, never
// below the floor.
func (s *Scheduler) gangFor(rec *jobRec) (int, bool) {
	need, want := s.gangRange(rec)
	if s.nFree < need {
		return 0, false
	}
	if s.pol.Kind == WeightedFair {
		return min(max(s.fairShare(rec), need), s.nFree), true
	}
	return want, true
}

// fairShare is rec's WeightedFair allocation against every job currently
// in the system (running or waiting, rec among them), capped at its
// request.
func (s *Scheduler) fairShare(rec *jobRec) int {
	size := s.cl.Ranks() * rec.Weight / s.demand
	if size > rec.Want {
		size = rec.Want
	}
	return size
}

// start places a gang of size ranks and launches the job on it. backfill
// marks a start from deeper in the queue scan — the policy let this job
// jump jobs still waiting ahead of it.
func (s *Scheduler) start(rec *jobRec, size int, backfill bool) {
	if s.ss != nil {
		rec.Gang, rec.leased = s.placeNodes(size)
	} else {
		rec.Gang = s.place(size)
		rec.leased = rec.Gang
	}
	rec.Admit = s.eng.Now()
	s.setState(rec, false, true)
	if r := s.cl.Obs; r.Enabled() {
		stream := "sched/" + rec.Name
		if rec.Class != Batch || rec.Deadline > 0 {
			// Class tag only when the submission used SLO features, so
			// pre-class recordings stay byte-identical.
			r.Span(int64(rec.Arrival), int64(rec.Admit), obs.CatSim, stream, "queue.wait",
				obs.A("class", rec.Class.String()))
		} else {
			r.Span(int64(rec.Arrival), int64(rec.Admit), obs.CatSim, stream, "queue.wait")
		}
		r.Emit(int64(rec.Admit), obs.CatSim, stream, "place",
			obs.Int("gang", int64(len(rec.Gang))), obs.Int("want", int64(rec.Want)),
			obs.Bool("backfill", backfill))
	}
	if s.OnStart != nil {
		s.OnStart(rec.ID, rec.Gang)
	}
	if s.ss != nil {
		s.dispatch(rec)
		return
	}
	err := rec.job.LaunchOn(s.eng, s.cl, rec.Gang, func(tr *core.Trace) {
		s.finish(rec, tr)
		s.admit()
	})
	if err != nil {
		// Pre-validated jobs should not fail to launch; record the first
		// failure and release the gang so the run can drain. No recursive
		// admit() here — start is called from inside admit's queue scan,
		// and the outer loop picks the freed ranks up itself. In online
		// mode one tenant's bad job must not take the service down: the
		// failure is scoped to the job (rec.err, OnDone) and the batch-run
		// abort stays the Run wrapper's business via launchE.
		rec.err = fmt.Errorf("sched: launching job %q: %w", rec.Name, err)
		if s.launchE == nil {
			s.launchE = rec.err
		}
		s.finish(rec, nil)
	}
}

// dispatch launches rec's job on its gang's home shard. The hub->home post
// carries the launch overhead; the home->hub completion post carries one
// fabric latency. Both stamps are pure functions of the simulation — hub
// decision time, gang node IDs, per-key sequence — so the merged event
// order is identical at every shard count, including 1. All scheduler
// state stays hub-confined: the home shard only launches the job and posts
// results back.
func (s *Scheduler) dispatch(rec *jobRec) {
	name := rec.Name
	home := s.homeOf(rec.Gang)
	key := s.cl.NodeOfRank(rec.Gang[0]).ID
	gang := rec.Gang
	s.ss.Post(s.eng, home, hubKey, s.launchLat, name+".launch", func(p *des.Proc) {
		homeEng := p.Engine()
		err := rec.job.LaunchOn(homeEng, s.cl, gang, func(tr *core.Trace) {
			s.ss.Post(homeEng, 0, key, s.doneLat, name+".done", func(q *des.Proc) {
				s.finish(rec, tr)
				s.admit()
			})
		})
		if err != nil {
			err = fmt.Errorf("sched: launching job %q: %w", name, err)
			s.ss.Post(homeEng, 0, key, s.doneLat, name+".done", func(q *des.Proc) {
				// Written on the hub, like every other rec mutation.
				rec.err = err
				if s.launchE == nil {
					s.launchE = rec.err
				}
				s.finish(rec, nil)
				s.admit()
			})
		}
	})
}

// finish releases a completed job's gang. Completion callbacks re-run
// admission afterwards; the synchronous launch-error path must not. A
// launch that drained early because we asked it to quiesce is not done —
// its partial output is discarded and the job requeues for a restart
// (or tears down, for PreemptCancel). A quiesce that lost the race with
// natural completion (tr.Preempted false) is a normal finish.
func (s *Scheduler) finish(rec *jobRec, tr *core.Trace) {
	if rec.quiescing && tr != nil && tr.Preempted && rec.err == nil {
		s.requeue(rec)
		return
	}
	rec.quiescing, rec.qCancel, rec.growPending = false, false, false
	rec.Finish = s.eng.Now()
	rec.Trace = tr
	s.setState(rec, false, false)
	s.releaseRanks(rec)
	if s.OnDone != nil {
		s.OnDone(rec.ID, rec.job, tr, rec.err)
	}
}

// releaseRanks frees rec's whole lease.
func (s *Scheduler) releaseRanks(rec *jobRec) {
	for _, r := range rec.leased {
		s.setFree(r, true)
		// Straggler derating injected by the tenant's fault plan is
		// scoped to its lease: the next tenant gets nominal hardware.
		s.cl.Derate(r, 1)
	}
}

// place claims size free global ranks (marking them busy), topology-aware:
// fully-idle nodes first (a gang that owns whole nodes never splits a NIC
// pair with a neighbour), then the tightest-fitting partial node for the
// remainder so large idle nodes stay whole for the next big gang.
// Deterministic: ties break toward the lowest node ID, ranks ascend within
// a node.
func (s *Scheduler) place(size int) []int {
	gang := make([]int, 0, size)
	for len(gang) < size {
		need := size - len(gang)
		best := -1
		bestFree := 0
		// Tier 1: the largest fully-idle node that fits entirely.
		for ni, node := range s.cl.Nodes {
			free := s.nodeFree[ni]
			if free == len(node.GPUs) && free <= need && free > bestFree {
				best, bestFree = ni, free
			}
		}
		if best < 0 {
			// Tier 2: best fit — the node with the fewest free ranks that
			// still covers the remainder.
			for ni, free := range s.nodeFree {
				if free >= need && (best < 0 || free < bestFree) {
					best, bestFree = ni, free
				}
			}
		}
		if best < 0 {
			// Tier 3: no single node covers the remainder — take the
			// fullest idle node and keep going.
			for ni, free := range s.nodeFree {
				if free > bestFree {
					best, bestFree = ni, free
				}
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("sched: placing %d ranks with %d free", size, s.nFree))
		}
		take := bestFree
		if take > need {
			take = need
		}
		for _, dev := range s.cl.Nodes[best].GPUs {
			if take == 0 {
				break
			}
			if s.free[dev.ID] {
				s.setFree(dev.ID, false)
				gang = append(gang, dev.ID)
				take--
			}
		}
	}
	sort.Ints(gang)
	return gang
}

// placeNodes claims whole idle nodes, lowest ID first, until they cover
// size ranks; the gang is the first size leased ranks and the remainder
// stay leased-idle until finish. Whole-node leases keep every shared
// hardware primitive — NICs, PCIe links, the host CPU resource — owned by
// exactly one gang (one shard) at a time, and they preserve the invariant
// that every node is either fully free or fully leased, so nFree remains an
// exact feasibility test for gangFor.
func (s *Scheduler) placeNodes(size int) (gang, leased []int) {
	for ni, node := range s.cl.Nodes {
		if len(leased) >= size {
			break
		}
		if s.nodeFree[ni] != len(node.GPUs) {
			continue
		}
		for _, dev := range node.GPUs {
			s.setFree(dev.ID, false)
			leased = append(leased, dev.ID)
		}
	}
	if len(leased) < size {
		panic(fmt.Sprintf("sched: leasing %d ranks with %d free (node lease invariant broken)", size, s.nFree+len(leased)))
	}
	return leased[:size], leased
}
