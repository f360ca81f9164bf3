package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Config controls one GPMR job's pipeline shape and the cluster it runs on.
type Config struct {
	// Name labels the job in traces.
	Name string

	// GPUs is the number of GPU processes (one per GPU, as in the paper).
	GPUs int

	// Cluster optionally overrides the machine; nil uses the paper's
	// testbed shape via cluster.DefaultConfig(GPUs).
	Cluster *cluster.Config

	// VirtFactor is the virtual replication factor: each physical input
	// element stands for VirtFactor elements at paper scale. 1 disables
	// replication. See DESIGN.md.
	VirtFactor int64

	// ValBytes is the virtual size of one value in bytes (keys are 4).
	ValBytes int64

	// Accumulate keeps map output resident on the GPU across chunks; the
	// mapper folds each chunk's emissions into ctx.Resident(). Mutually
	// exclusive with a Combiner and a PartialReducer (the paper: "at most
	// one can be used" of Accumulation and Partial Reduction).
	Accumulate bool

	// DisableSort skips the Sort stage (MM bypasses Sort and Reduce).
	DisableSort bool

	// GatherOutput sends every rank's final pairs to rank 0 and
	// concatenates them into Result.Output (charged network time).
	GatherOutput bool

	// GPUDirect models the paper's future-work NIC-to-GPU path: Bin's
	// device-to-host staging copies are skipped. Off by default.
	GPUDirect bool

	// Startup is the fixed per-job spin-up charged before any rank begins
	// pulling chunks: CUDA context creation, MPI wire-up, and GPMR
	// scheduler initialization. It is what erodes efficiency for small
	// inputs at high GPU counts (the collapsing 1M-element curves of
	// Figure 3). Zero means none; the benchmark apps use DefaultStartup.
	Startup des.Time

	// StealPolicy selects how the dynamic work queues pick a victim when
	// a starved rank shifts a chunk. The zero value, StealGlobal, is the
	// paper's topology-blind behaviour; StealLocalFirst keeps shifts
	// on-node when possible to spare the NICs. See DESIGN.md.
	StealPolicy StealPolicy

	// Faults optionally schedules deterministic fail-stop GPU failures and
	// straggler derating (see internal/fault). A plan with fail-stops
	// switches the scheduler into resilient mode: lost chunks are
	// re-executed by survivors, a failed rank's reduce partition moves to
	// a successor, and the job's functional output matches the
	// failure-free run. Fail-stops require the streaming pipeline (no
	// Accumulate, no Combiner); straggler-only plans work everywhere.
	Faults *fault.Plan

	// Speculate lets a rank that finds every queue empty launch a backup
	// copy of a chunk still running elsewhere (the classic MapReduce
	// answer to stragglers). The first copy to deliver its shuffle output
	// wins; the loser's output is discarded and the loser abandons copies
	// it has not yet mapped. Implies resilient scheduling, with the same
	// streaming-pipeline requirement as Faults.
	Speculate bool

	// Workers selects the kernel-execution backend for exclusive runs:
	// 0 executes every kernel's functional closure inline on its
	// simulated process (Serial, today's default), n >= 1 dispatches
	// closures to a pool of n real worker goroutines, negative means
	// pool(GOMAXPROCS). The simulated schedule, every trace, and every
	// output byte are identical across backends — the pool only lets
	// map/sort/reduce work from different simulated GPUs occupy real
	// host cores concurrently, cutting simulator wall-clock. Scheduled
	// (multi-tenant) runs take the backend from the shared
	// cluster.Config.Workers instead; see sched.Run. See DESIGN.md,
	// "Execution backends".
	Workers int

	// Obs attaches a flight recorder to an exclusive run (nil = tracing
	// off). It flows into the cluster the run builds; an explicit
	// Cluster.Obs wins. Scheduled runs record through the shared
	// cluster's recorder instead.
	Obs *obs.Recorder
}

// resilient reports whether the job needs the fault-tolerant scheduler:
// chunk-completion tracking, re-queues on failure, and (optionally)
// speculative backups. It costs a later end-of-map declaration — a rank
// cannot announce "no more output" until every chunk is delivered, since
// a failure might still assign it re-execution work — so it is on only
// when fail-stops or speculation are in play; straggler-only plans just
// derate devices and need none of it.
func (c Config) resilient() bool {
	return c.Speculate || c.Faults.HasFailStop()
}

// pipelineDepth is how many chunks may be in flight per GPU between the
// loader and the mapper, and how many emit buffers may await their D2H
// copy: 2 is double buffering.
const pipelineDepth = 2

// stealMinQueue is the number of queued chunks a victim should hold to
// justify a shift: don't rob a queue of its only chunk — its owner will
// finish it sooner locally. For StealLocalFirst it defines when a node
// counts as dry: a thief crosses the node boundary once no same-node
// queue meets the threshold. Below-threshold queues are robbed (fullest
// first) only when no queue anywhere meets it — better one shift than an
// idle GPU.
const stealMinQueue = 2

// DefaultStartup is the per-job spin-up the benchmark applications charge,
// calibrated to 2011-era CUDA context + MVAPICH2 job launch costs.
const DefaultStartup = 15 * des.Millisecond

// normalize validates and defaults everything except the Cluster field —
// the part shared between exclusive runs (which build their own cluster
// from Config.Cluster) and scheduled runs (which execute on a rank subset
// of a shared cluster and ignore Config.Cluster entirely).
func (c Config) normalize() (Config, error) {
	if c.GPUs <= 0 {
		return c, fmt.Errorf("core: config needs GPUs >= 1, got %d", c.GPUs)
	}
	if c.VirtFactor <= 0 {
		c.VirtFactor = 1
	}
	if c.ValBytes <= 0 {
		c.ValBytes = 4
	}
	if c.StealPolicy != StealGlobal && c.StealPolicy != StealLocalFirst {
		return c, fmt.Errorf("core: unknown StealPolicy %d", c.StealPolicy)
	}
	if err := c.Faults.Validate(c.GPUs); err != nil {
		return c, fmt.Errorf("core: %w", err)
	}
	return c, nil
}

// withDefaults validates and normalizes the configuration for an exclusive
// run, including the cluster shape.
func (c Config) withDefaults() (Config, error) {
	c, err := c.normalize()
	if err != nil {
		return c, err
	}
	if c.Cluster == nil {
		cc := cluster.DefaultConfig(c.GPUs)
		c.Cluster = &cc
	} else {
		cc := *c.Cluster // never mutate the caller's cluster config
		c.Cluster = &cc
	}
	if c.Cluster.Workers == 0 {
		// The job-level knob flows into the machine it builds; an explicit
		// cluster-level setting wins.
		c.Cluster.Workers = c.Workers
	}
	if c.Cluster.Obs == nil {
		c.Cluster.Obs = c.Obs
	}
	if c.Cluster.GPUs != c.GPUs {
		return c, fmt.Errorf("core: cluster config has %d GPUs, job wants %d", c.Cluster.GPUs, c.GPUs)
	}
	return c, nil
}
