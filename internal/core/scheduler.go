package core

import (
	"repro/internal/des"
)

// StealPolicy selects how a starved rank picks the victim queue when the
// dynamic work queues shift a chunk for load balance.
type StealPolicy int

const (
	// StealGlobal shifts from the globally fullest queue, ignoring node
	// topology (the paper's behaviour).
	StealGlobal StealPolicy = iota
	// StealLocalFirst prefers the fullest queue on the thief's own node —
	// an intra-node shift is a host-memory copy that leaves both NICs
	// free — and crosses the node boundary only when the whole node is
	// dry. See DESIGN.md, "Locality-aware chunk stealing".
	StealLocalFirst
)

// String names the policy for traces and benchmark reports.
func (p StealPolicy) String() string {
	switch p {
	case StealGlobal:
		return "global"
	case StealLocalFirst:
		return "localfirst"
	}
	return "unknown"
}

// nodeScope restricts victim selection relative to the thief's node.
type nodeScope int

const (
	anyNode nodeScope = iota
	sameNodeOnly
	otherNodeOnly
)

// chunkState tracks one chunk through the resilient scheduler.
type chunkState int8

const (
	chunkQueued  chunkState = iota
	chunkRunning            // assigned to a rank, shuffle output not yet delivered
	chunkDone               // some copy's output fully handed to the fabric
)

// assignment is one chunk handed to a rank by next().
type assignment struct {
	chunk Chunk
	idx   int
	// stolenFrom is the victim rank when the chunk was shifted from
	// another queue for load balance, else -1.
	stolenFrom int
	// recoveredFrom is the failed rank whose loss requeued this chunk,
	// else -1. The re-fetch of the chunk's input was charged against the
	// failed rank's node (host memory survives a GPU failure).
	recoveredFrom int
	// speculative marks a backup copy of a chunk still running elsewhere.
	speculative bool
}

// scheduler implements GPMR's dynamic work queues: each GPU pulls chunks
// from its local queue, and when a queue runs dry while others still have
// work, a chunk is shifted from a victim queue — charging the chunk's
// serialized transfer over the fabric, which is why chunks must be
// serializable in GPMR. Victim selection is policy-driven: the fabric's
// node topology tells the scheduler which shifts stay on-node (cheap
// host-memory copies) and which occupy NICs.
//
// In resilient mode (fault injection or speculation enabled) the
// scheduler additionally tracks each chunk to delivery: a rank that finds
// every queue empty parks until all chunks are delivered — because a
// failure may yet requeue lost chunks to it — or, with speculation on,
// launches a backup copy of a chunk still running elsewhere. The first
// copy of a chunk to deliver its shuffle output wins (complete); the
// scheduler tells later copies they lost so their output is discarded.
type scheduler struct {
	chunks   []Chunk
	queues   [][]int // chunk indices per rank
	g        *gang
	policy   StealPolicy
	minQueue int // victims should hold at least this many chunks (stealMinQueue)

	resilient bool
	speculate bool
	// derateOf exposes each rank's current straggler factor (1 =
	// nominal), standing in for the progress-based straggler detector a
	// real speculation policy runs: backups launch only where they can
	// actually overtake the primary.
	derateOf  func(rank int) float64
	state     []chunkState
	runner    []int  // current primary executor per chunk (-1 = none)
	backup    []int  // speculative backup rank per chunk (-1 = none)
	recovered []int  // failed rank whose loss requeued the chunk (-1 = none)
	failed    []bool // per-rank fail-stop flags
	done      int
	cond      *des.Cond // starved ranks park here awaiting requeue/completion

	// stopped quiesces the queues for checkpoint-preemption: next hands
	// out no more chunks, so every rank finishes its in-flight chunk and
	// drains the normal end-of-map → shuffle → reduce tail.
	stopped bool
}

// newScheduler distributes chunks round-robin across ranks; assign may
// override the initial placement (used by tests and benchmarks to create
// imbalance and by apps with locality preferences). The gang supplies
// the node topology that StealLocalFirst consults; eng hosts the
// condition starved ranks park on in resilient mode.
func newScheduler(eng *des.Engine, chunks []Chunk, cfg Config, g *gang, assign func(chunk int) int) *scheduler {
	s := &scheduler{
		chunks:    chunks,
		queues:    make([][]int, cfg.GPUs),
		g:         g,
		policy:    cfg.StealPolicy,
		minQueue:  stealMinQueue,
		resilient: cfg.resilient(),
		speculate: cfg.Speculate,
		state:     make([]chunkState, len(chunks)),
		runner:    make([]int, len(chunks)),
		backup:    make([]int, len(chunks)),
		recovered: make([]int, len(chunks)),
		failed:    make([]bool, cfg.GPUs),
		cond:      des.NewCond(eng),
	}
	for i := range chunks {
		s.runner[i] = -1
		s.backup[i] = -1
		s.recovered[i] = -1
		r := i % cfg.GPUs
		if assign != nil {
			// Wrap placements written for the requested GPU count into the
			// granted gang (a scheduler may shrink the gang below request).
			r = assign(i) % cfg.GPUs
		}
		s.queues[r] = append(s.queues[r], i)
	}
	return s
}

// next returns the rank's next assignment, shifting one from a victim
// queue when the local queue is empty. ok=false means the rank will never
// receive more work (global exhaustion, or the rank itself has failed).
// In resilient mode the call may park until the outcome is decided.
func (s *scheduler) next(p *des.Proc, rank int) (assignment, bool) {
	for {
		if s.stopped || s.failed[rank] {
			return assignment{}, false
		}
		if idx, ok := s.popHead(rank); ok {
			// Mark before the (blocking) re-fetch so a failure of this
			// rank mid-transfer still sees the chunk as its work and
			// requeues it.
			s.markRunning(idx, rank)
			if from := s.recovered[idx]; from >= 0 {
				// Lost-chunk re-fetch: the input lives in the failed
				// rank's host memory; charge the same transfer a steal
				// would.
				s.g.transfer(p, from, rank, s.chunks[idx].VirtBytes())
			}
			return assignment{chunk: s.chunks[idx], idx: idx, stolenFrom: -1, recoveredFrom: s.recovered[idx]}, true
		}
		if victim := s.pickVictimByPolicy(rank); victim >= 0 {
			if idx, ok := s.popTail(victim); ok {
				src := victim
				if s.recovered[idx] >= 0 {
					src = s.recovered[idx] // data still sits on the failed node
				}
				s.markRunning(idx, rank)
				s.g.transfer(p, src, rank, s.chunks[idx].VirtBytes())
				return assignment{chunk: s.chunks[idx], idx: idx, stolenFrom: victim, recoveredFrom: s.recovered[idx]}, true
			}
			continue // victim queue held only delivered chunks; re-scan
		}
		if !s.resilient || s.done == len(s.chunks) {
			return assignment{}, false
		}
		if s.speculate {
			if idx := s.pickBackup(rank); idx >= 0 {
				s.backup[idx] = rank
				s.g.transfer(p, s.runner[idx], rank, s.chunks[idx].VirtBytes())
				return assignment{chunk: s.chunks[idx], idx: idx, stolenFrom: -1, recoveredFrom: -1, speculative: true}, true
			}
		}
		// Work may yet appear (a failure requeues lost chunks) or the
		// last running chunks may complete: park until the state moves.
		s.cond.Wait(p)
	}
}

// popHead takes the rank's next queued, undelivered chunk.
func (s *scheduler) popHead(rank int) (int, bool) {
	q := s.queues[rank]
	for len(q) > 0 {
		idx := q[0]
		q = q[1:]
		if s.state[idx] == chunkDone {
			continue // delivered while requeued; nothing left to run
		}
		s.queues[rank] = q
		return idx, true
	}
	s.queues[rank] = q
	return -1, false
}

// popTail takes the victim's last queued, undelivered chunk (the victim
// keeps the prefix it will pull next).
func (s *scheduler) popTail(victim int) (int, bool) {
	q := s.queues[victim]
	for len(q) > 0 {
		idx := q[len(q)-1]
		q = q[:len(q)-1]
		if s.state[idx] == chunkDone {
			continue
		}
		s.queues[victim] = q
		return idx, true
	}
	s.queues[victim] = q
	return -1, false
}

func (s *scheduler) markRunning(idx, rank int) {
	s.state[idx] = chunkRunning
	s.runner[idx] = rank
}

// pickVictimByPolicy applies the steal policy's tiers to choose a victim
// queue, or -1 when every queue is empty.
func (s *scheduler) pickVictimByPolicy(rank int) int {
	victim := -1
	switch s.policy {
	case StealLocalFirst:
		// The threshold defines "dry": a node whose queues are all below
		// minQueue is crossed away from rather than robbed of stragglers
		// its owners will finish on their own. Only when no queue
		// anywhere meets the threshold does the final tier take the
		// fullest non-empty queue, local before remote — better one
		// shift than an idle GPU.
		if victim = s.pickVictim(rank, sameNodeOnly, s.minQueue); victim < 0 {
			victim = s.pickVictim(rank, otherNodeOnly, s.minQueue)
		}
		if victim < 0 {
			if victim = s.pickVictim(rank, sameNodeOnly, 1); victim < 0 {
				victim = s.pickVictim(rank, otherNodeOnly, 1)
			}
		}
	default:
		if victim = s.pickVictim(rank, anyNode, s.minQueue); victim < 0 {
			victim = s.pickVictim(rank, anyNode, 1)
		}
	}
	return victim
}

// pickBackup selects the lowest-indexed chunk still running on a rank
// strictly slower than the thief, with no backup yet — the tail chunk a
// straggler is sitting on once every queue is empty. The strictness
// matters twice: a slow rank must not burn its (and the job's) time
// backing up healthy peers, and equal-speed backups would lose the race
// to the earlier-started primary while delaying the thief's own
// end-of-map declaration.
func (s *scheduler) pickBackup(rank int) int {
	mine := s.rankDerate(rank)
	for idx := range s.chunks {
		if s.state[idx] == chunkRunning && s.runner[idx] != rank && s.backup[idx] < 0 &&
			s.rankDerate(s.runner[idx]) > mine {
			return idx
		}
	}
	return -1
}

func (s *scheduler) rankDerate(rank int) float64 {
	if s.derateOf == nil {
		return 1
	}
	return s.derateOf(rank)
}

// complete records that rank finished delivering chunk idx's shuffle
// output. It reports whether this copy won — false when a speculative
// twin (or the pre-failure original) delivered first, in which case the
// caller must discard its output.
func (s *scheduler) complete(idx, rank int) bool {
	if !s.resilient {
		return true
	}
	if s.state[idx] == chunkDone {
		return false
	}
	s.state[idx] = chunkDone
	s.runner[idx] = rank
	s.done++
	s.cond.Broadcast()
	return true
}

// isDone reports whether some copy of the chunk already delivered; a rank
// holding another copy abandons it without mapping.
func (s *scheduler) isDone(idx int) bool { return s.state[idx] == chunkDone }

// quiesce stops the dynamic queues at the next chunk boundary: ranks
// already mapping a chunk finish it (its shuffle output is delivered and
// reduced as usual), everyone else gets no more work, and the job drains
// through its normal end-of-map tail. Parked resilient ranks are woken so
// they can observe the stop.
func (s *scheduler) quiesce() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.cond.Broadcast()
}

// fail marks rank f dead and requeues its lost work: everything still
// queued to it plus every undelivered chunk it was running (device-
// resident state died with the GPU). Requeued chunks spread round-robin
// over the survivors and are tagged with their recovery source so pulls
// charge the re-fetch. A chunk whose speculative backup is still alive is
// not requeued — the backup carries on as primary.
func (s *scheduler) fail(f int) {
	if s.failed[f] {
		return
	}
	s.failed[f] = true
	var lost []int
	for _, idx := range s.queues[f] {
		if s.state[idx] != chunkDone {
			lost = append(lost, idx)
		}
	}
	s.queues[f] = nil
	for idx := range s.chunks {
		if s.backup[idx] == f {
			s.backup[idx] = -1
		}
		if s.state[idx] == chunkRunning && s.runner[idx] == f {
			if b := s.backup[idx]; b >= 0 {
				s.runner[idx] = b
				s.backup[idx] = -1
				continue
			}
			lost = append(lost, idx)
		}
	}
	var live []int
	for r := range s.failed {
		if !s.failed[r] {
			live = append(live, r)
		}
	}
	for i, idx := range lost {
		s.state[idx] = chunkQueued
		s.runner[idx] = -1
		s.recovered[idx] = f
		r := live[i%len(live)]
		s.queues[r] = append(s.queues[r], idx)
	}
	s.cond.Broadcast()
}

// pickVictim returns the in-scope rank with the fullest queue holding at
// least minLen chunks, or -1 when none does.
func (s *scheduler) pickVictim(thief int, scope nodeScope, minLen int) int {
	victim, best := -1, minLen-1
	for r, q := range s.queues {
		if s.inScope(thief, r, scope) && len(q) > best {
			victim, best = r, len(q)
		}
	}
	return victim
}

// inScope reports whether rank r is an eligible victim for the thief under
// the given node scope.
func (s *scheduler) inScope(thief, r int, scope nodeScope) bool {
	switch scope {
	case sameNodeOnly:
		return s.g.sameNode(thief, r)
	case otherNodeOnly:
		return !s.g.sameNode(thief, r)
	}
	return true
}

// remaining reports how many chunks are still queued anywhere.
func (s *scheduler) remaining() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}
