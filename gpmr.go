// Package gpmr is a Go reproduction of GPMR, the stand-alone MapReduce
// library for GPU clusters of Stuart & Owens, "Multi-GPU MapReduce on GPU
// Clusters" (IPDPS 2011).
//
// GPMR modifies the MapReduce model for GPUs: map and reduce items are
// batched into Chunks to keep the GPU full and to support out-of-core
// datasets; an Accumulation substage keeps map output resident on the GPU
// across chunks; a Partial Reduction substage folds like-keyed pairs before
// they cross PCIe; a Combine substage (executed once, after all maps)
// minimizes network traffic; Partition and Sort are user-replaceable with
// sensible defaults; and a CPU-side Bin substage overlaps network
// communication with GPU compute. One process drives each GPU, with
// dynamic work queues that shift chunks for load balance.
//
// Because Go has no CUDA bindings, the hardware substrate is a
// deterministic discrete-event simulation of the paper's testbed (Tesla
// S1070 GPUs, shared PCIe host interface cards, QDR InfiniBand). Kernels
// run real Go code over real data — every result is exact and testable —
// while their simulated cost comes from a calibrated roofline model. See
// DESIGN.md for the substitution argument and EXPERIMENTS.md for
// paper-vs-measured results.
//
// Kernels' functional work can execute on a pool of real host cores
// (Config.Workers; DESIGN.md, "Execution backends"): the simulated
// schedule and every output byte are identical to the serial default —
// proven by a differential test matrix — while work from different
// simulated GPUs runs concurrently, cutting the simulator's wall-clock.
//
// # Quick start
//
// Implement a Mapper (and usually a Reducer), wrap your input as Chunks,
// and run a Job:
//
//	job := &gpmr.Job[uint32]{
//	    Config:      gpmr.Config{GPUs: 4, GatherOutput: true},
//	    Chunks:      chunks,
//	    Mapper:      myMapper{},
//	    Partitioner: gpmr.RoundRobin{},
//	    Reducer:     myReducer{},
//	}
//	res, err := job.Run()
//
// See examples/ for runnable programs and internal/apps for the paper's
// five benchmarks built on this API.
package gpmr

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/sched"
)

// Core pipeline types, re-exported from the implementation package.
type (
	// Config controls a job's pipeline shape and cluster.
	Config = core.Config
	// Chunk is one indivisible unit of map work.
	Chunk = core.Chunk
	// Job describes one GPMR run.
	Job[V any] = core.Job[V]
	// Result is a completed job's output.
	Result[V any] = core.Result[V]
	// Trace is a job's timing record.
	Trace = core.Trace
	// RankTrace is one GPU process's timestamps and counters.
	RankTrace = core.RankTrace
	// RecoveryStats aggregates fault recovery and speculation counters.
	RecoveryStats = core.RecoveryStats
	// Breakdown is a Figure-2-style runtime decomposition.
	Breakdown = core.Breakdown
	// StealPolicy selects the dynamic work queues' victim policy.
	StealPolicy = core.StealPolicy
	// StealStats aggregates chunk-shift provenance across ranks.
	StealStats = core.StealStats

	// Mapper is the user's map stage.
	Mapper[V any] = core.Mapper[V]
	// Reducer is the user's reduce stage.
	Reducer[V any] = core.Reducer[V]
	// Partitioner assigns keys to reduce ranks.
	Partitioner = core.Partitioner
	// Combiner merges all values of a key once after all maps.
	Combiner[V any] = core.Combiner[V]
	// PartialReducer folds like-keyed pairs before PCIe transfer.
	PartialReducer[V any] = core.PartialReducer[V]
	// Sorter customizes the Sort stage's cost model.
	Sorter = core.Sorter

	// MapContext is the mapper's window onto the device and pipeline.
	MapContext[V any] = core.MapContext[V]
	// ReduceContext is the reducer's window onto the device.
	ReduceContext[V any] = core.ReduceContext[V]

	// RoundRobin is the default integer-key partitioner.
	RoundRobin = core.RoundRobin
	// BlockPartitioner assigns consecutive key blocks to ranks.
	BlockPartitioner = core.BlockPartitioner
	// RadixSorter is the default CUDPP-radix Sorter.
	RadixSorter = core.RadixSorter

	// FaultPlan deterministically schedules GPU failures and straggler
	// derating for a job (Config.Faults). See DESIGN.md, "Fault
	// tolerance".
	FaultPlan = fault.Plan
	// FaultEvent is one scheduled fail-stop or straggler event.
	FaultEvent = fault.Event

	// Time is simulated time in nanoseconds.
	Time = des.Time

	// Multi-tenant job scheduling (internal/sched): many jobs
	// space-sharing one simulated cluster. See DESIGN.md,
	// "Multi-tenancy".

	// Scheduled wraps a Job for the job-level scheduler and captures its
	// Result on completion.
	Scheduled[V any] = core.Scheduled[V]
	// Runnable is the non-generic job interface the scheduler admits: the
	// one declaration of what a scheduler or server may ask a job (launch,
	// checkpoint, cost estimate, output digest and text), every method
	// required.
	Runnable = core.Runnable
	// SchedPolicy configures gang sizing and admission for RunJobs.
	SchedPolicy = sched.Policy
	// SchedPolicyKind selects FIFO-exclusive, fixed-share, or
	// weighted-fair scheduling.
	SchedPolicyKind = sched.PolicyKind
	// JobSpec is one submission (arrival time, job, weight, MinGang).
	JobSpec = sched.JobSpec
	// ClusterTrace aggregates a scheduler run: per-job latency and queue
	// wait, throughput, and Jain's fairness index.
	ClusterTrace = sched.ClusterTrace
	// JobTrace records one job's passage through the shared cluster.
	JobTrace = sched.JobTrace
	// ClusterConfig selects the shared machine's shape for RunJobs.
	ClusterConfig = cluster.Config
)

// Job-level scheduling policies selectable via SchedPolicy.Kind.
const (
	// FIFOExclusive runs jobs one at a time on the whole cluster.
	FIFOExclusive = sched.FIFOExclusive
	// FixedShare caps every gang at a fixed rank count.
	FixedShare = sched.FixedShare
	// WeightedFair sizes gangs by weight and molds them onto idle ranks.
	WeightedFair = sched.WeightedFair
)

// RunJobs simulates a stream of jobs space-sharing one cluster under the
// policy and returns the cluster-level trace.
func RunJobs(cc ClusterConfig, pol SchedPolicy, specs []JobSpec) (*ClusterTrace, error) {
	return sched.Run(cc, pol, specs)
}

// DefaultClusterConfig is the paper's testbed shape scaled to nGPUs ranks
// (four per node), for use with RunJobs.
func DefaultClusterConfig(nGPUs int) ClusterConfig { return cluster.DefaultConfig(nGPUs) }

// Fault injection helpers, re-exported from internal/fault.
var (
	// FailAt schedules a fail-stop of rank at a simulated time.
	FailAt = fault.FailAt
	// FailAfterChunks schedules a fail-stop after the rank's nth chunk.
	FailAfterChunks = fault.FailAfterChunks
	// SlowdownAt derates rank by factor from a simulated time onward.
	SlowdownAt = fault.SlowdownAt
	// SlowdownAfterChunks derates rank after its nth chunk.
	SlowdownAfterChunks = fault.SlowdownAfterChunks
)

// DefaultStartup is the per-job spin-up the benchmark apps charge.
const DefaultStartup = core.DefaultStartup

// Steal policies selectable via Config.StealPolicy.
const (
	// StealGlobal shifts chunks from the globally fullest queue.
	StealGlobal = core.StealGlobal
	// StealLocalFirst prefers same-node victims, sparing the NICs.
	StealLocalFirst = core.StealLocalFirst
)

// FitAllChunking is a helper for Reducer.ChunkValueSets implementations.
func FitAllChunking(sets int, virtVals, freeBytes, valBytes int64) int {
	return core.FitAllChunking(sets, virtVals, freeBytes, valBytes)
}
