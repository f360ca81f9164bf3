package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/keyval"
	"repro/internal/obs"
)

// Job describes one GPMR run: input chunks plus the user's pipeline pieces.
// Mapper is required; everything else is optional with the paper's
// defaults (RoundRobin partitioning is NOT default — a nil Partitioner
// routes all pairs to rank 0, matching GPMR's "omit Partition" behaviour).
type Job[V any] struct {
	Config Config
	Chunks []Chunk

	// Assign optionally overrides the initial round-robin chunk placement
	// (chunk index → rank). Ranks outside the job's actual gang size are
	// wrapped, so placements written for the requested GPU count still
	// work when a scheduler grants a smaller gang.
	Assign func(chunk int) int

	Mapper         Mapper[V]
	PartialReducer PartialReducer[V]
	Combiner       Combiner[V]
	Partitioner    Partitioner
	Sorter         Sorter
	Reducer        Reducer[V]
}

// Result is a completed job's output.
type Result[V any] struct {
	// Output is the gathered final pairs at rank 0 (rank order), when
	// Config.GatherOutput is set.
	Output keyval.Pairs[V]
	// PerRank holds each reduce partition's final pairs (reduce output,
	// or the post-shuffle pairs when the job has no Reducer). Partition r
	// is reduced by rank r unless a failure reassigned it to a successor;
	// the slot is indexed by partition either way.
	PerRank []keyval.Pairs[V]
	Trace   *Trace
}

// Validate checks the job's pipeline configuration without running it.
func (j *Job[V]) Validate() error {
	if j.Mapper == nil {
		return errors.New("core: job needs a Mapper")
	}
	if len(j.Chunks) == 0 {
		return errors.New("core: job needs at least one chunk")
	}
	if j.Config.Accumulate && (j.Combiner != nil || j.PartialReducer != nil) {
		return errors.New("core: Accumulation excludes Combiner and PartialReducer")
	}
	if j.Config.DisableSort && (j.Reducer != nil || j.Combiner != nil) {
		return errors.New("core: DisableSort requires no Reducer and no Combiner")
	}
	if j.Config.resilient() && (j.Config.Accumulate || j.Combiner != nil) {
		// Accumulation and Combine emit whole-rank (not per-chunk) output,
		// so chunk-granular re-execution and exactly-once delivery do not
		// apply to them. Straggler-only plans are fine: derating needs no
		// recovery machinery.
		return errors.New("core: fail-stop injection and speculation require the streaming pipeline (no Accumulation, no Combiner)")
	}
	return nil
}

// Run executes the job on a freshly built, exclusive simulated cluster and
// returns the result with its timing trace. It is launchOn specialized to
// the single-tenant case: the gang is the whole cluster. Job and config
// validation happen inside launchOn; only the Cluster field needs
// resolving here, before the machine is built.
func (j *Job[V]) Run() (*Result[V], error) {
	cfg, err := j.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	eng := des.NewEngine()
	eng.SetRecorder(cfg.Cluster.Obs)
	cl := cluster.New(eng, *cfg.Cluster)
	defer cl.Close()
	var res *Result[V]
	if _, err := j.launchOn(eng, cl, identityRanks(cfg.GPUs), func(r *Result[V]) { res = r }); err != nil {
		return nil, err
	}
	eng.Run()
	return res, nil
}

// MustRun is Run for tests and examples where errors are fatal bugs.
func (j *Job[V]) MustRun() *Result[V] {
	res, err := j.Run()
	if err != nil {
		panic(fmt.Sprintf("core: job %q: %v", j.Config.Name, err))
	}
	return res
}

// launchOn instantiates the job's processes on a shared engine and cluster
// against the given global rank subset (the job's gang) and returns
// immediately; the engine runs the job alongside any co-resident tenants.
// The job executes with GPUs = len(ranks) — a scheduler may grant a gang
// smaller than the requested Config.GPUs — and Config.Cluster is ignored
// (the machine is whatever cl is). done fires, in simulated time from one
// of the job's own processes, when the job's last process finishes; the
// Result's Trace carries the job-relative makespan and the job's own share
// of the shared fabric's traffic. The returned stop handle quiesces this
// launch at its next chunk boundary (checkpoint-preemption; see
// Scheduled.PreemptLaunch) — callers that never preempt may discard it.
func (j *Job[V]) launchOn(eng *des.Engine, cl *cluster.Cluster, ranks []int, done func(*Result[V])) (func(), error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if len(ranks) == 0 {
		return nil, errors.New("core: launch needs a non-empty gang")
	}
	cfg := j.Config
	cfg.GPUs = len(ranks)
	if cfg.GPUs < j.Config.GPUs && !cfg.Faults.Empty() {
		// The scheduler granted a smaller gang than requested. Fault
		// events aimed at job-local ranks that were valid for the request
		// but no longer exist are vacuously dropped — the GPU that would
		// have failed is not part of this job. Events outside even the
		// requested range still fail validation below.
		kept := make([]fault.Event, 0, len(cfg.Faults.Events))
		for _, ev := range cfg.Faults.Events {
			if ev.Rank < cfg.GPUs || ev.Rank >= j.Config.GPUs {
				kept = append(kept, ev)
			}
		}
		if len(kept) == 0 {
			cfg.Faults = nil
		} else {
			cfg.Faults = &fault.Plan{Events: kept}
		}
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	g, err := newGang(cl, ranks)
	if err != nil {
		return nil, err
	}
	rt := &runtime[V]{
		job:    j,
		cfg:    cfg,
		g:      g,
		start:  eng.Now(),
		wg:     des.NewWaitGroup(eng),
		traces: make([]RankTrace, cfg.GPUs),
		outs:   make([]keyval.Pairs[V], cfg.GPUs),
		gather: make([]*keyval.Pairs[V], cfg.GPUs),
		ft:     newFaultState(cfg.GPUs),
		obs:    cl.Obs,
	}
	rt.sched = newScheduler(eng, j.Chunks, cfg, g, j.Assign)
	rt.sched.derateOf = g.derate
	if j.Sorter == nil {
		rt.sorter = RadixSorter{}
	} else {
		rt.sorter = j.Sorter
	}
	for r := 0; r < cfg.GPUs; r++ {
		rt.spawnRank(eng, r)
	}
	rt.spawnInjectors(eng)
	eng.Spawn(rt.procName("done"), func(p *des.Proc) {
		rt.wg.Wait(p)
		// Lease-end invariant: the job consumed everything addressed to
		// it. A message left behind would leak into the next tenant of
		// that global rank on a shared cluster.
		for l := 0; l < rt.g.size(); l++ {
			if n := rt.g.pending(l); n != 0 {
				panic(fmt.Sprintf("core: job %q left %d unread message(s) in rank %d's inbox", cfg.Name, n, ranks[l]))
			}
		}
		done(rt.collect(p.Now()))
	})
	return rt.sched.quiesce, nil
}

// collect assembles the job's Result at completion time now.
func (rt *runtime[V]) collect(now des.Time) *Result[V] {
	res := &Result[V]{
		PerRank: rt.outs,
		Trace: &Trace{
			Name:       rt.cfg.Name,
			GPUs:       rt.cfg.GPUs,
			Wall:       now - rt.start,
			Ranks:      rt.traces,
			WireBytes:  rt.g.wireBytes,
			LocalBytes: rt.g.localBytes,
			Preempted:  rt.sched.stopped,
		},
	}
	if rt.cfg.GatherOutput {
		// Concatenate in partition order; a partition reduced by a
		// successor rank after a failure still lands in its own slot, so
		// the gathered output is identical to a failure-free run.
		for part := 0; part < rt.cfg.GPUs; part++ {
			var pr *keyval.Pairs[V]
			if rt.ft.owner[part] == 0 {
				pr = &rt.outs[part]
			} else {
				pr = rt.gather[part]
			}
			if pr != nil {
				res.Output.AppendPairs(pr)
			}
		}
	}
	return res
}

// spawn registers one of the job's processes, tracked so the completion
// watcher knows when the job's last process has finished.
func (rt *runtime[V]) spawn(eng *des.Engine, name string, body func(p *des.Proc)) {
	rt.wg.Add(1)
	eng.Spawn(name, func(p *des.Proc) {
		body(p)
		rt.wg.Done()
	})
}

// procName prefixes a process or primitive name with the job's name so
// shared-engine diagnostics (deadlock reports) identify the tenant.
func (rt *runtime[V]) procName(suffix string) string {
	return rt.cfg.Name + "." + suffix
}

// runtime holds one execution's shared state.
type runtime[V any] struct {
	job    *Job[V]
	cfg    Config
	g      *gang
	start  des.Time // simulated admission time; traces are relative to it
	wg     *des.WaitGroup
	sched  *scheduler
	sorter Sorter
	traces []RankTrace
	outs   []keyval.Pairs[V]  // final pairs by reduce partition
	gather []*keyval.Pairs[V] // rank 0's gathered outputs, by partition
	ft     faultState
	obs    *obs.Recorder // flight recorder, from the cluster (nil = off)
}

// Runnable is the non-generic face of a Job, letting the job-level
// scheduler (internal/sched) admit heterogeneous jobs — different value
// types V — onto one shared cluster, and the serving layer report their
// outputs. It is the one declaration of what a scheduler or a server may
// ask a job; every method is required. Wrap a Job in a Scheduled to get
// one.
type Runnable interface {
	// RunName labels the job in cluster traces.
	RunName() string
	// GangWant is the job's requested gang size (Config.GPUs).
	GangWant() int
	// ValidateJob checks the job without running it.
	ValidateJob() error
	// LaunchOn instantiates the job on the shared engine and cluster
	// against the granted rank subset; done fires (in simulated time)
	// with the job's trace when its last process finishes.
	LaunchOn(eng *des.Engine, cl *cluster.Cluster, ranks []int, done func(*Trace)) error

	// PreemptLaunch asks the in-flight launch to quiesce at a chunk
	// boundary — GPMR's checkpoint: chunk completion is the only instant
	// where no device-resident state is in motion, so it is where a
	// launch can stop cleanly. The job-level scheduler uses it for class
	// preemption, preempt-cancel and elastic grow-back. Reports false
	// when there is no launch to stop.
	PreemptLaunch() bool

	// EstimateCost predicts the job's service time on a gang of the given
	// size before it runs: the admission cost model that SLO admission,
	// the EASY backfill reservation and the serve layer's Retry-After
	// drain hint consume. The estimate must be a deterministic pure
	// function of the job and the cluster's hardware properties, and
	// monotone — more bytes or fewer ranks never predict a faster job. It
	// is deliberately coarse: a roofline walk over the pipeline's bulk
	// data movement, not a simulation. The EASY reservation only needs a
	// consistent ordering of predicted completions; the M/G/k calibration
	// test checks the open system against measured service times, not
	// predicted ones.
	EstimateCost(cl *cluster.Cluster, gang int) des.Time

	// OutputDigest returns the canonical 64-bit digest of the job's final
	// output, and false while the job has not completed. The serving
	// layer records digests in its arrival trace so a replayed run can
	// prove byte-identical job outputs without shipping the outputs.
	OutputDigest() (uint64, bool)
	// RenderOutput writes the job's final output as canonical text, and
	// fails while the job has not completed. The serving layer's
	// output-retrieval endpoint uses it so a fleet router can proxy
	// results without the shard retaining live Result structures.
	RenderOutput(w io.Writer) error
}

// Scheduled adapts one generic Job for the job-level scheduler and
// captures its Result when it completes, so callers can check scheduled
// output against exclusive runs.
type Scheduled[V any] struct {
	Job *Job[V]
	// Result is populated when the scheduled job completes.
	Result *Result[V]

	// stop quiesces the most recent launch (nil before the first one).
	stop func()
}

// RunName implements Runnable.
func (s *Scheduled[V]) RunName() string { return s.Job.Config.Name }

// GangWant implements Runnable.
func (s *Scheduled[V]) GangWant() int { return s.Job.Config.GPUs }

// ValidateJob implements Runnable.
func (s *Scheduled[V]) ValidateJob() error {
	if err := s.Job.Validate(); err != nil {
		return err
	}
	_, err := s.Job.Config.normalize()
	return err
}

// LaunchOn implements Runnable. Relaunching after a preemption is safe:
// chunks are read-only inputs and every launch builds a fresh runtime, so
// a restarted job reproduces the output an uninterrupted run would have.
func (s *Scheduled[V]) LaunchOn(eng *des.Engine, cl *cluster.Cluster, ranks []int, done func(*Trace)) error {
	stop, err := s.Job.launchOn(eng, cl, ranks, func(res *Result[V]) {
		s.Result = res
		done(res.Trace)
	})
	if err != nil {
		return err
	}
	s.stop = stop
	return nil
}

// PreemptLaunch implements Runnable: ask the in-flight launch to
// quiesce at its next chunk boundary. The launch then drains — in-flight
// chunks finish mapping, the shuffle and reduce consume whatever was
// delivered — and completes with Trace.Preempted set; the scheduler
// discards the partial output and requeues the job for a deterministic
// restart from scratch. Reports false before the first launch; calling it
// after a launch has completed is harmless (the handle is stale).
func (s *Scheduled[V]) PreemptLaunch() bool {
	if s.stop == nil {
		return false
	}
	s.stop()
	return true
}
