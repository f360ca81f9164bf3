package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
)

// stealChunk is a fixed-size chunk for direct scheduler tests.
type stealChunk struct{ bytes int64 }

func (c *stealChunk) Elems() int       { return 1 }
func (c *stealChunk) VirtBytes() int64 { return c.bytes }

// schedFixture builds a scheduler over a two-node cluster (ranks 0,1 on
// node 0; ranks 2,3 on node 1) with queues[r] chunks of chunkBytes
// pre-assigned to each rank, and minQueue in place of stealMinQueue so
// the threshold logic can be probed at other values.
func schedFixture(policy StealPolicy, minQueue int, queues [4]int, chunkBytes int64) (*des.Engine, *scheduler) {
	eng := des.NewEngine()
	cc := cluster.DefaultConfig(4)
	cc.GPUsPerNode = 2
	cl := cluster.New(eng, cc)
	g, err := newGang(cl, identityRanks(4))
	if err != nil {
		panic(err)
	}
	var chunks []Chunk
	var owner []int
	for r, n := range queues {
		for i := 0; i < n; i++ {
			chunks = append(chunks, &stealChunk{bytes: chunkBytes})
			owner = append(owner, r)
		}
	}
	cfg := Config{GPUs: 4, StealPolicy: policy}
	s := newScheduler(eng, chunks, cfg, g, func(c int) int { return owner[c] })
	s.minQueue = minQueue
	return eng, s
}

// stealOnce runs one next() call for the thief inside the engine and
// returns the victim rank.
func stealOnce(eng *des.Engine, s *scheduler, thief int) int {
	victim := -2
	eng.Spawn("thief", func(p *des.Proc) {
		a, _ := s.next(p, thief)
		victim = a.stolenFrom
	})
	eng.Run()
	return victim
}

func TestStealGlobalPicksFullestAnywhere(t *testing.T) {
	// Remote rank 3 is fullest; global ignores the node boundary.
	eng, s := schedFixture(StealGlobal, 2, [4]int{0, 2, 0, 5}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 3 {
		t.Errorf("global policy stole from rank %d, want fullest rank 3", v)
	}
}

func TestStealLocalFirstPrefersSameNode(t *testing.T) {
	// Same queues as above: local-first must take the smaller same-node
	// queue (rank 1) over the fuller remote one (rank 3).
	eng, s := schedFixture(StealLocalFirst, 2, [4]int{0, 2, 0, 5}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 1 {
		t.Errorf("local-first stole from rank %d, want same-node rank 1", v)
	}
	if s.g.wireBytes != 0 {
		t.Errorf("same-node steal crossed the fabric: wireBytes=%d", s.g.wireBytes)
	}
	if s.g.localBytes != 1<<20 {
		t.Errorf("same-node steal charged %d local bytes, want %d", s.g.localBytes, 1<<20)
	}
}

func TestStealLocalFirstCrossesWhenNodeDry(t *testing.T) {
	// The thief's whole node (ranks 0,1) is empty: cross the boundary.
	eng, s := schedFixture(StealLocalFirst, 2, [4]int{0, 0, 0, 5}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 3 {
		t.Errorf("stole from rank %d, want remote rank 3", v)
	}
	if s.g.wireBytes != 1<<20 {
		t.Errorf("cross-node steal charged %d wire bytes, want %d", s.g.wireBytes, 1<<20)
	}
}

func TestStealThresholdPrefersQualifyingQueue(t *testing.T) {
	// minQueue 4: rank 1 (3 queued) is below the threshold, rank 3 (4
	// queued) meets it — the threshold, not raw fullness order within the
	// fallback, decides.
	eng, s := schedFixture(StealGlobal, 4, [4]int{0, 3, 0, 4}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 3 {
		t.Errorf("stole from rank %d, want threshold-qualifying rank 3", v)
	}
}

func TestStealFallbackBelowThreshold(t *testing.T) {
	// No queue meets minQueue 4, but an idle GPU is worse than a small
	// shift: fall back to a non-empty queue.
	eng, s := schedFixture(StealGlobal, 4, [4]int{0, 0, 0, 1}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 3 {
		t.Errorf("stole from rank %d, want fallback rank 3", v)
	}
}

func TestStealFallbackPicksFullest(t *testing.T) {
	// The below-threshold fallback must still prefer the fullest queue,
	// not the first non-empty by rank order: robbing rank 1's only chunk
	// while rank 3 holds three would idle rank 1 on its next pull.
	eng, s := schedFixture(StealGlobal, 4, [4]int{0, 1, 0, 3}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 3 {
		t.Errorf("fallback stole from rank %d, want fullest rank 3", v)
	}
}

func TestStealThresholdDefinesNodeDry(t *testing.T) {
	// Local rank 1 holds a single below-threshold chunk while remote
	// rank 3 is well stocked: with minQueue 2 the node counts as dry, so
	// the thief crosses rather than robbing the straggler its owner will
	// finish sooner locally.
	eng, s := schedFixture(StealLocalFirst, 2, [4]int{0, 1, 0, 5}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 3 {
		t.Errorf("stole from rank %d, want remote rank 3 (local node dry)", v)
	}
	// With minQueue 1 the same placement keeps the steal on-node.
	eng2, s2 := schedFixture(StealLocalFirst, 1, [4]int{0, 1, 0, 5}, 1<<20)
	if v := stealOnce(eng2, s2, 0); v != 1 {
		t.Errorf("stole from rank %d, want same-node rank 1 at minQueue 1", v)
	}
}

func TestStealExhaustion(t *testing.T) {
	eng, s := schedFixture(StealLocalFirst, 2, [4]int{0, 0, 0, 0}, 1<<20)
	eng2, s2 := schedFixture(StealGlobal, 2, [4]int{0, 0, 0, 0}, 1<<20)
	for _, tc := range []struct {
		eng *des.Engine
		s   *scheduler
	}{{eng, s}, {eng2, s2}} {
		var ok bool
		tc.eng.Spawn("thief", func(p *des.Proc) {
			_, ok = tc.s.next(p, 0)
		})
		tc.eng.Run()
		if ok {
			t.Error("next returned a chunk from empty queues")
		}
	}
	if s.remaining() != 0 {
		t.Errorf("remaining=%d on empty queues", s.remaining())
	}
}

func TestStealVictimKeepsPrefix(t *testing.T) {
	// The victim loses its tail chunk, not the head it will pull next.
	eng, s := schedFixture(StealGlobal, 2, [4]int{0, 3, 0, 0}, 1<<20)
	if v := stealOnce(eng, s, 0); v != 1 {
		t.Fatalf("stole from rank %d, want 1", v)
	}
	if got := len(s.queues[1]); got != 2 {
		t.Errorf("victim queue has %d chunks, want 2", got)
	}
	if s.queues[1][0] != 0 {
		t.Errorf("victim lost its head chunk")
	}
}

func TestUnknownStealPolicyRejected(t *testing.T) {
	data := smallData(100, 10)
	j := countJob(data, 1, 2)
	j.Config.StealPolicy = StealPolicy(99)
	if _, err := j.Run(); err == nil {
		t.Error("unknown StealPolicy: expected error")
	}
}

// skewedJob places every chunk on its node's first rank (ranks 0 and 4 of
// an 8-GPU, 4-per-node job), so six ranks must steal.
func skewedJob(data []uint32, policy StealPolicy) *Job[uint32] {
	j := countJob(data, 8, 32)
	j.Config.StealPolicy = policy
	j.Assign = func(chunk int) int { return (chunk % 2) * 4 }
	return j
}

func TestStealTraceProvenance(t *testing.T) {
	data := smallData(20000, 500)
	res := skewedJob(data, StealLocalFirst).MustRun()
	checkCounts(t, &res.Output, referenceCounts(data, 0))
	st := res.Trace.Steals()
	if st.LocalSteals == 0 {
		t.Error("skewed placement produced no local steals")
	}
	for r, tr := range res.Trace.Ranks {
		if tr.LocalSteals+tr.RemoteSteals != tr.ChunksStolen {
			t.Errorf("rank %d: local %d + remote %d != stolen %d", r, tr.LocalSteals, tr.RemoteSteals, tr.ChunksStolen)
		}
		if tr.LocalStolenBytes+tr.RemoteStolenBytes != tr.StolenBytes {
			t.Errorf("rank %d: stolen bytes split %d+%d != total %d", r, tr.LocalStolenBytes, tr.RemoteStolenBytes, tr.StolenBytes)
		}
	}
	if st.Total() == 0 || st.LocalBytes == 0 {
		t.Errorf("aggregate steal stats empty: %+v", st)
	}
}

func TestLocalFirstReducesCrossNodeTraffic(t *testing.T) {
	data := smallData(20000, 500)
	global := skewedJob(data, StealGlobal).MustRun()
	local := skewedJob(data, StealLocalFirst).MustRun()
	// Shuffle traffic is placement- and policy-independent here, so any
	// cross-node delta comes from steal transfers.
	if local.Trace.WireBytes >= global.Trace.WireBytes {
		t.Errorf("local-first wire bytes %d >= global %d", local.Trace.WireBytes, global.Trace.WireBytes)
	}
	gs, ls := global.Trace.Steals(), local.Trace.Steals()
	if gs.RemoteSteals == 0 {
		t.Error("global policy produced no cross-node steals on the skewed placement")
	}
	if ls.RemoteBytes >= gs.RemoteBytes {
		t.Errorf("local-first remote stolen bytes %d >= global %d", ls.RemoteBytes, gs.RemoteBytes)
	}
	// Both policies still map every chunk exactly once.
	for _, res := range []*Result[uint32]{global, local} {
		mapped := 0
		for _, tr := range res.Trace.Ranks {
			mapped += tr.ChunksMapped
		}
		if mapped != 32 {
			t.Errorf("mapped %d chunks, want 32", mapped)
		}
	}
}

func TestStealTransferChargedOnFabric(t *testing.T) {
	// A remote steal holds both NICs for the chunk's serialized transfer:
	// with all chunks on node 0 and the thief on node 1, wire bytes must
	// include the stolen chunks' VirtBytes on top of shuffle traffic.
	data := smallData(20000, 500)
	base := countJob(data, 8, 32).MustRun() // balanced: no steals
	skew := countJob(data, 8, 32)
	skew.Assign = func(chunk int) int { return chunk % 4 } // node 0 only
	res := skew.MustRun()
	st := res.Trace.Steals()
	if st.RemoteBytes == 0 {
		t.Fatal("expected cross-node steals with all chunks on node 0")
	}
	if res.Trace.WireBytes < base.Trace.WireBytes+st.RemoteBytes {
		t.Errorf("wire bytes %d do not cover shuffle %d + stolen %d",
			res.Trace.WireBytes, base.Trace.WireBytes, st.RemoteBytes)
	}
}
