package core

import "repro/internal/des"

// RankTrace records one GPU process's stage completion timestamps plus
// bookkeeping counters. The Figure-2 decomposition derives from the
// timestamps: Map is everything until the last map-side work finishes,
// Complete Binning is the shuffle drain that could not overlap with
// mapping, then Sort and Reduce, with the remainder attributed to GPMR
// internals (scheduling, gather, barriers).
type RankTrace struct {
	MapDone     des.Time // last map/accumulate/combine kernel finished
	ShuffleDone des.Time // all partitions received (binning complete)
	SortDone    des.Time
	ReduceDone  des.Time

	ChunksMapped int
	ChunksStolen int   // total chunks this rank stole (local + remote)
	StolenBytes  int64 // total virtual bytes this rank stole
	PairsEmitted int64 // virtual
	PairsReduced int64 // virtual pairs fed to reducers
	OutOfCore    bool  // sort stage spilled

	// Steal provenance: a local steal is an intra-node shift (host-memory
	// copy); a remote steal crosses the node boundary and occupies both
	// endpoints' NICs for the whole transfer.
	LocalSteals       int
	RemoteSteals      int
	LocalStolenBytes  int64
	RemoteStolenBytes int64

	// Communication accounting at the fabric boundary (virtual bytes):
	// every message this rank handed to or received from the fabric,
	// split wire (cross-node) vs local (intra-node shared memory). Steal
	// and recovery re-fetch transfers are charged by the scheduler and
	// tracked by the steal/recovery counters, not here.
	SentWireBytes  int64
	SentLocalBytes int64
	RecvWireBytes  int64
	RecvLocalBytes int64

	// Fault state, set by the injection plan (internal/fault).
	Failed   bool
	FailedAt des.Time
	Derated  float64 // straggler factor (0 = nominal)

	// Recovery: re-executions of a failed rank's lost chunks that this
	// rank ran, their input re-fetch traffic, and — on the failed rank
	// itself — the partition-handoff bytes its surviving host process
	// re-sent to the successor.
	ChunksRecovered int
	RecoveredBytes  int64
	RelayBytes      int64

	// Speculation: backup copies this rank launched, how many delivered
	// first, chunk executions whose output was discarded because a twin
	// delivered first, copies abandoned before mapping, and duplicate
	// shuffle deliveries dropped by this rank's receiver (defense in
	// depth; the win/lose protocol makes duplicates unreachable).
	SpecLaunched  int
	SpecWon       int
	ChunksWasted  int
	ChunksSkipped int
	DupDropped    int
}

// Add accumulates o's timestamps and counters into t. It exists to fold
// multi-job benchmarks (MM's two passes) into one reported trace.
func (t *RankTrace) Add(o RankTrace) {
	t.MapDone += o.MapDone
	t.ShuffleDone += o.ShuffleDone
	t.SortDone += o.SortDone
	t.ReduceDone += o.ReduceDone
	t.ChunksMapped += o.ChunksMapped
	t.ChunksStolen += o.ChunksStolen
	t.StolenBytes += o.StolenBytes
	t.PairsEmitted += o.PairsEmitted
	t.PairsReduced += o.PairsReduced
	t.OutOfCore = t.OutOfCore || o.OutOfCore
	t.LocalSteals += o.LocalSteals
	t.RemoteSteals += o.RemoteSteals
	t.LocalStolenBytes += o.LocalStolenBytes
	t.RemoteStolenBytes += o.RemoteStolenBytes
	t.SentWireBytes += o.SentWireBytes
	t.SentLocalBytes += o.SentLocalBytes
	t.RecvWireBytes += o.RecvWireBytes
	t.RecvLocalBytes += o.RecvLocalBytes
	t.Failed = t.Failed || o.Failed
	if o.FailedAt > t.FailedAt {
		t.FailedAt = o.FailedAt
	}
	if o.Derated > t.Derated {
		t.Derated = o.Derated
	}
	t.ChunksRecovered += o.ChunksRecovered
	t.RecoveredBytes += o.RecoveredBytes
	t.RelayBytes += o.RelayBytes
	t.SpecLaunched += o.SpecLaunched
	t.SpecWon += o.SpecWon
	t.ChunksWasted += o.ChunksWasted
	t.ChunksSkipped += o.ChunksSkipped
	t.DupDropped += o.DupDropped
}

// Trace aggregates a job's timing.
type Trace struct {
	Name  string
	GPUs  int
	Wall  des.Time
	Ranks []RankTrace

	// WireBytes is total cross-node virtual bytes; LocalBytes intra-node.
	WireBytes  int64
	LocalBytes int64

	// Preempted marks a launch that was asked to quiesce
	// (Scheduled.PreemptLaunch) and drained early; its output is partial
	// and must be discarded — the job-level scheduler requeues the job
	// for a restart from scratch.
	Preempted bool
}

// StealStats aggregates chunk-shift provenance across a job's ranks.
type StealStats struct {
	LocalSteals  int
	RemoteSteals int
	LocalBytes   int64
	RemoteBytes  int64
}

// Total is the combined steal count.
func (s StealStats) Total() int { return s.LocalSteals + s.RemoteSteals }

// Steals sums the per-rank steal provenance counters.
func (t *Trace) Steals() StealStats {
	var s StealStats
	for _, r := range t.Ranks {
		s.LocalSteals += r.LocalSteals
		s.RemoteSteals += r.RemoteSteals
		s.LocalBytes += r.LocalStolenBytes
		s.RemoteBytes += r.RemoteStolenBytes
	}
	return s
}

// RecoveryStats aggregates fault recovery and speculation across ranks.
type RecoveryStats struct {
	FailedRanks     int
	DeratedRanks    int
	ChunksRecovered int   // lost chunks re-executed by survivors
	RecoveredBytes  int64 // input re-fetch traffic for those
	RelayBytes      int64 // partition-handoff traffic from failed ranks
	SpecLaunched    int
	SpecWon         int
	ChunksWasted    int
	ChunksSkipped   int
	DupDropped      int
}

// Active reports whether any fault, recovery, or speculation happened.
func (r RecoveryStats) Active() bool {
	return r.FailedRanks > 0 || r.DeratedRanks > 0 || r.ChunksRecovered > 0 || r.SpecLaunched > 0
}

// Recovery sums the per-rank fault recovery and speculation counters.
func (t *Trace) Recovery() RecoveryStats {
	var s RecoveryStats
	for _, r := range t.Ranks {
		if r.Failed {
			s.FailedRanks++
		}
		if r.Derated > 1 {
			s.DeratedRanks++
		}
		s.ChunksRecovered += r.ChunksRecovered
		s.RecoveredBytes += r.RecoveredBytes
		s.RelayBytes += r.RelayBytes
		s.SpecLaunched += r.SpecLaunched
		s.SpecWon += r.SpecWon
		s.ChunksWasted += r.ChunksWasted
		s.ChunksSkipped += r.ChunksSkipped
		s.DupDropped += r.DupDropped
	}
	return s
}

// Breakdown is a Figure-2-style runtime decomposition, in fractions of the
// wall time (summing to 1).
type Breakdown struct {
	Map             float64
	CompleteBinning float64
	Sort            float64
	Reduce          float64
	Internal        float64
}

// Breakdown averages the per-rank stage decomposition.
func (t *Trace) Breakdown() Breakdown {
	if t.Wall <= 0 || len(t.Ranks) == 0 {
		return Breakdown{}
	}
	var b Breakdown
	w := float64(t.Wall)
	for _, r := range t.Ranks {
		m := clampT(r.MapDone)
		sh := maxT(r.ShuffleDone, m)
		so := maxT(r.SortDone, sh)
		re := maxT(r.ReduceDone, so)
		b.Map += float64(m) / w
		b.CompleteBinning += float64(sh-m) / w
		b.Sort += float64(so-sh) / w
		b.Reduce += float64(re-so) / w
		b.Internal += float64(t.Wall-re) / w
	}
	n := float64(len(t.Ranks))
	b.Map /= n
	b.CompleteBinning /= n
	b.Sort /= n
	b.Reduce /= n
	b.Internal /= n
	return b
}

func clampT(t des.Time) des.Time {
	if t < 0 {
		return 0
	}
	return t
}

func maxT(a, b des.Time) des.Time {
	if a > b {
		return a
	}
	return b
}
