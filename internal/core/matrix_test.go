package core

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestPipelineConfigurationMatrix exercises every pipeline shape the paper
// describes across GPU counts, checking functional correctness, trace
// invariants, and determinism for each combination.
func TestPipelineConfigurationMatrix(t *testing.T) {
	data := smallData(12000, 400)
	ref := referenceCounts(data, 0)
	variants := []struct {
		name string
		mut  func(*Job[uint32])
	}{
		{"plain", func(j *Job[uint32]) {}},
		{"partialreduce", func(j *Job[uint32]) { j.PartialReducer = localCombine{} }},
		{"combiner", func(j *Job[uint32]) { j.Combiner = sumCombiner{} }},
		{"nil-partitioner", func(j *Job[uint32]) { j.Partitioner = nil }},
		{"block-partitioner", func(j *Job[uint32]) { j.Partitioner = BlockPartitioner{Span: 400} }},
		{"with-startup", func(j *Job[uint32]) { j.Config.Startup = DefaultStartup }},
	}
	for _, v := range variants {
		for _, gpus := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/%dgpu", v.name, gpus)
			t.Run(name, func(t *testing.T) {
				mk := func() *Result[uint32] {
					j := countJob(data, gpus, 8)
					v.mut(j)
					return j.MustRun()
				}
				res := mk()
				checkCounts(t, &res.Output, ref)
				// Trace invariants: stage timestamps are ordered per rank
				// and the breakdown tiles the wall exactly.
				for r, tr := range res.Trace.Ranks {
					if tr.ShuffleDone < tr.MapDone || tr.SortDone < tr.ShuffleDone || tr.ReduceDone < tr.SortDone {
						t.Errorf("rank %d: stage timestamps out of order: %+v", r, tr)
					}
					if tr.ReduceDone > res.Trace.Wall {
						t.Errorf("rank %d: reduce done after wall: %v > %v", r, tr.ReduceDone, res.Trace.Wall)
					}
				}
				b := res.Trace.Breakdown()
				if sum := b.Map + b.CompleteBinning + b.Sort + b.Reduce + b.Internal; sum < 0.999 || sum > 1.001 {
					t.Errorf("breakdown sums to %f", sum)
				}
				// Determinism: an identical rerun must produce the same
				// wall time and output.
				again := mk()
				if again.Trace.Wall != res.Trace.Wall {
					t.Errorf("nondeterministic wall: %v vs %v", res.Trace.Wall, again.Trace.Wall)
				}
			})
		}
	}
}

// TestAccumulateMatrix covers the accumulation path across GPU counts and
// key spaces (the WO/KMC/LR family).
func TestAccumulateMatrix(t *testing.T) {
	for _, keySpace := range []int{16, 256, 2048} {
		data := smallData(15000, keySpace)
		ref := referenceCounts(data, keySpace)
		// The accumulating mapper emits every key (zeros included), as
		// WO's initial map does.
		for k := 0; k < keySpace; k++ {
			ref[uint32(k)] += 0
		}
		for _, gpus := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("keys%d/%dgpu", keySpace, gpus), func(t *testing.T) {
				j := &Job[uint32]{
					Config: Config{
						Name: "accum", GPUs: gpus, ValBytes: 4,
						Accumulate: true, GatherOutput: true,
					},
					Chunks:      makeChunks(data, 6, 1),
					Mapper:      accumMapper{keySpace: keySpace},
					Partitioner: RoundRobin{},
					Reducer:     sumReducer{},
				}
				res := j.MustRun()
				checkCounts(t, &res.Output, ref)
			})
		}
	}
}

// TestPropertyOutputInvariantUnderChunking: the job's output must not
// depend on how the input is cut into chunks.
func TestPropertyOutputInvariantUnderChunking(t *testing.T) {
	data := smallData(4000, 100)
	ref := referenceCounts(data, 0)
	f := func(nChunksRaw uint8) bool {
		nChunks := int(nChunksRaw%12) + 1
		res := countJob(data, 4, nChunks).MustRun()
		got := make(map[uint32]uint32)
		for i, k := range res.Output.Keys {
			got[k] += res.Output.Vals[i]
		}
		if len(got) != len(ref) {
			return false
		}
		for k, want := range ref {
			if got[k] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWallMonotoneInStartup: adding fixed startup can only push
// the wall time out, never shrink it.
func TestPropertyWallMonotoneInStartup(t *testing.T) {
	data := smallData(3000, 64)
	base := countJob(data, 2, 4).MustRun().Trace.Wall
	withStartup := countJob(data, 2, 4)
	withStartup.Config.Startup = DefaultStartup
	got := withStartup.MustRun().Trace.Wall
	if got < base+DefaultStartup/2 {
		t.Errorf("startup not reflected: %v vs base %v", got, base)
	}
}

// TestFitAllChunkingProperties pins the reduce-chunking helper's contract.
func TestFitAllChunkingProperties(t *testing.T) {
	f := func(setsRaw uint16, vals uint32, free uint32) bool {
		sets := int(setsRaw)
		got := FitAllChunking(sets, int64(vals), int64(free), 4)
		if got < 1 {
			return false
		}
		if sets > 0 && got > sets {
			return false
		}
		// If everything fits with scratch, take everything.
		if sets > 0 && int64(vals)*8*2 <= int64(free) && got != sets {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBlockPartitionerRanges pins the consecutive-blocks partitioner.
func TestBlockPartitionerRanges(t *testing.T) {
	p := BlockPartitioner{Span: 1000}
	if p.Rank(0, 4) != 0 || p.Rank(999, 4) != 3 {
		t.Error("block partitioner endpoints wrong")
	}
	prev := 0
	for k := uint32(0); k < 1000; k += 10 {
		r := p.Rank(k, 4)
		if r < prev {
			t.Fatalf("block partitioner not monotone at key %d", k)
		}
		prev = r
	}
	if (BlockPartitioner{}).Rank(123, 4) != 0 {
		t.Error("zero-span partitioner should route to rank 0")
	}
}
