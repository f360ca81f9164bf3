// Package sched is GPMR's job-level scheduler: it admits a queue of
// heterogeneous MapReduce jobs onto ONE shared simulated cluster, where
// the paper's system dedicates the whole machine to a single job.
//
// The sharing model is space-sharing: each admitted job receives a gang —
// a disjoint subset of the cluster's GPU ranks — and runs the unmodified
// GPMR pipeline against it (see core's gang seam). Co-resident gangs
// contend for the hardware the fabric model already prices: jobs placed on
// the same node share its NIC pair, CPU cores, and (when packed onto the
// same PCIe host interface card) the PCIe link, so a neighbour's shuffle
// slows yours exactly the way the paper's Figure-2 communication wall
// predicts. Gang placement is therefore topology-aware: whole nodes first,
// so a job's shuffle stays on its own NICs whenever the cluster allows.
//
// Three admission policies size the gangs; backfill lets small jobs start
// on idle ranks while a large one drains. See DESIGN.md, "Multi-tenancy".
package sched

import (
	"errors"
	"fmt"
)

// PolicyKind selects how the scheduler sizes and admits gangs.
type PolicyKind int

const (
	// FIFOExclusive is the paper's implicit policy: jobs run strictly in
	// arrival order, one at a time, each holding the whole cluster even
	// when its gang is smaller. The baseline every sharing policy is
	// measured against.
	FIFOExclusive PolicyKind = iota
	// FixedShare caps every gang at a fixed rank count (Policy.Share) and
	// runs jobs concurrently while free ranks last — static partitioning,
	// simple and predictable, wasteful when the mix is heterogeneous.
	FixedShare
	// WeightedFair sizes each gang by the job's weight relative to every
	// job currently in the system (running or queued): gang =
	// clamp(total·w/Σw, MinGang..requested). Jobs are moldable — when
	// fewer ranks are idle than the fair share, the gang shrinks to the
	// idle set (never below MinGang) rather than wait, which is what lets
	// small jobs slip in while a big one drains.
	WeightedFair
)

// String names the policy for traces and reports.
func (k PolicyKind) String() string {
	switch k {
	case FIFOExclusive:
		return "fifo-exclusive"
	case FixedShare:
		return "fixed-share"
	case WeightedFair:
		return "weighted-fair"
	}
	return "unknown"
}

// ParsePolicyKind resolves a policy name as printed by PolicyKind.String
// — the single lookup shared by the daemon's flags and the arrival-trace
// header, so a new kind cannot exist in one and not the other.
func ParsePolicyKind(name string) (PolicyKind, error) {
	for _, k := range []PolicyKind{FIFOExclusive, FixedShare, WeightedFair} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
}

// Class is a job's service class. Higher classes are queued ahead of
// lower ones; under Policy.Preempt they may also checkpoint-preempt
// running lower-class gangs. The zero value, Batch, reproduces the
// pre-class scheduler exactly.
type Class int

const (
	// Batch is best-effort work with no ordering privilege (the default).
	Batch Class = iota
	// Standard sits between batch and interactive traffic.
	Standard
	// Interactive is the highest class: tight deadlines, first in queue.
	Interactive
)

// String names the class for traces, reports, and the HTTP boundary.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Standard:
		return "standard"
	case Interactive:
		return "interactive"
	}
	return "unknown"
}

// ParseClass resolves a class name as printed by Class.String; the empty
// string is Batch, so callers that never mention classes are untouched.
func ParseClass(name string) (Class, error) {
	if name == "" {
		return Batch, nil
	}
	for _, c := range []Class{Batch, Standard, Interactive} {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrBadClass, name)
}

// Policy configures admission for one scheduler run.
type Policy struct {
	Kind PolicyKind

	// Share is the per-gang rank cap for FixedShare (required there,
	// ignored elsewhere).
	Share int

	// Reserve makes an EASY-style reservation for a blocked queue head:
	// the cost model predicts when the running gangs will have freed
	// enough ranks for the head, and a later job may only backfill if its
	// own predicted completion lands before that reserved start — so
	// backfill can no longer starve the head.
	Reserve bool

	// Preempt lets a blocked higher-class queue head checkpoint-preempt
	// running lower-class gangs: victims quiesce at their next chunk
	// boundary, release their ranks, and requeue for a deterministic
	// restart from scratch (partial output is discarded — jobs are
	// deterministic, so a restart reproduces the uninterrupted result).
	// The same checkpoint grows gangs back for jobs that opted in
	// (JobSpec.Elastic): when the queue is empty and a WeightedFair gang
	// that was molded below its fair share could at least double by
	// relaunching on the now-idle ranks, it is checkpointed and
	// re-expanded.
	Preempt bool
}

// Named validation errors. Policy and submission mistakes must surface as
// errors before the simulation starts, never as panics inside it.
var (
	// ErrUnknownPolicy reports a PolicyKind outside the defined set.
	ErrUnknownPolicy = errors.New("sched: unknown policy kind")
	// ErrBadShare reports a FixedShare cap of zero, negative, or larger
	// than the cluster.
	ErrBadShare = errors.New("sched: fixed-share cap outside 1..cluster ranks")
	// ErrBadWeight reports a negative job weight. Zero is accepted and
	// defaults to 1, so the error names the actual contract: >= 0.
	ErrBadWeight = errors.New("sched: job weight must be >= 0 (0 defaults to 1)")
	// ErrGangTooBig reports a job requesting more ranks than the cluster
	// has.
	ErrGangTooBig = errors.New("sched: requested gang larger than cluster")
	// ErrBadMinGang reports a MinGang that is negative or exceeds the
	// job's requested gang.
	ErrBadMinGang = errors.New("sched: MinGang outside 0..requested gang")
	// ErrBadArrival reports a negative arrival time.
	ErrBadArrival = errors.New("sched: negative arrival time")
	// ErrNilJob reports a submission without a job.
	ErrNilJob = errors.New("sched: submission has no job")
	// ErrNoJobs reports an empty submission list.
	ErrNoJobs = errors.New("sched: no jobs submitted")
	// ErrBadCluster reports an unusable cluster shape.
	ErrBadCluster = errors.New("sched: invalid cluster configuration")
	// ErrBadClass reports a service class outside the defined set.
	ErrBadClass = errors.New("sched: unknown service class")
	// ErrBadDeadline reports a negative deadline.
	ErrBadDeadline = errors.New("sched: negative deadline")
	// ErrBadPreempt reports Preempt on FIFOExclusive, which never shares
	// the machine and so has nothing to preempt or grow.
	ErrBadPreempt = errors.New("sched: Preempt requires a sharing policy")
)

// Validate checks the policy against a cluster of totalRanks.
func (p Policy) Validate(totalRanks int) error {
	switch p.Kind {
	case FIFOExclusive, WeightedFair:
	case FixedShare:
		if p.Share < 1 || p.Share > totalRanks {
			return fmt.Errorf("%w: Share=%d, cluster has %d", ErrBadShare, p.Share, totalRanks)
		}
	default:
		return fmt.Errorf("%w: %d", ErrUnknownPolicy, int(p.Kind))
	}
	if p.Kind == FIFOExclusive && p.Preempt {
		return ErrBadPreempt
	}
	return nil
}

// backfills reports whether the policy skips past a blocked queue head to
// admit a later job that fits on the idle ranks. The head is tried first,
// so a head that fits is never overtaken; without Reserve, one wider than
// the idle ranks ever are can be delayed by a stream of small jobs.
func (p Policy) backfills() bool {
	return p.Kind != FIFOExclusive
}
