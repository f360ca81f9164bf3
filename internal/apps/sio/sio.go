// Package sio implements the paper's Sparse Integer Occurrence benchmark
// on GPMR: count how often each integer appears in a sequence drawn
// uniformly from the whole 32-bit space.
//
// Following §5.3.2 of the paper: the mapper reads two integers per thread
// (for efficient memory access) and emits ⟨I,1⟩ for each; Partial
// Reduction and Accumulation are foregone (sparse keys make them useless),
// Combine causes slowdown and is skipped; the default radix Sort is used;
// and the reducer processes one key per thread, summing its values. SIO's
// huge intermediate state (one pair per input element) makes it the
// communication- and sort-bound stress test of the suite.
package sio

import (
	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/cudpp"
	"repro/internal/gpu"
	"repro/internal/keyval"
	"repro/internal/workload"
)

// Params configures one SIO job.
type Params struct {
	Elements int64 // virtual element count (paper: 1M–128M and beyond)
	GPUs     int
	Seed     uint64
	PhysMax  int   // physical element cap (default 1<<20)
	ChunkCap int64 // virtual elements per chunk (default 16M = 64 MB)

	// Ablation knobs. The paper rejects both for SIO: Partial Reduction
	// "yield[s] no speedup with our intermediate data" (sparse keys rarely
	// collide within a chunk) and Combine "causes slowdown" (staging all
	// pairs through CPU memory and back). They exist to regenerate that
	// comparison.
	UsePartialReduce bool
	UseCombiner      bool
}

func (p Params) withDefaults() Params {
	if p.PhysMax <= 0 {
		p.PhysMax = 1 << 20
	}
	if p.ChunkCap <= 0 {
		p.ChunkCap = 16 << 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

type chunk struct {
	data []uint32
	virt int64
}

func (c *chunk) Elems() int       { return len(c.data) }
func (c *chunk) VirtBytes() int64 { return c.virt * 4 }

// mapper reads two integers per thread and emits ⟨I,1⟩ twice.
type mapper struct{}

func (mapper) Map(ctx *core.MapContext[uint32], c core.Chunk) {
	ch := c.(*chunk)
	virtN := int64(len(ch.data)) * ctx.VirtFactor
	spec := gpu.KernelSpec{
		Name:           "sio.map",
		Threads:        virtN / 2,
		FlopsPerThread: 4,
		BytesRead:      float64(virtN * 4),
		BytesWritten:   float64(virtN * 8), // key+value per element
	}
	ctx.Launch(spec, func() {
		ctx.Emitted().Grow(len(ch.data))
		for _, v := range ch.data {
			ctx.Emit(v, 1)
		}
	})
	ctx.SetEmittedVirt(virtN)
}

// reducer sums one key's values per thread (the paper's final design; the
// block-per-key variant lost because sparse keys average <5 values).
type reducer struct{}

func (reducer) ChunkValueSets(sets int, virtVals, free int64) int {
	return core.FitAllChunking(sets, virtVals, free, 4)
}

func (reducer) Reduce(ctx *core.ReduceContext[uint32], keys []uint32, segs []cudpp.Segment, vals []uint32) {
	var phys int64
	for _, s := range segs {
		phys += int64(s.Count)
	}
	virtIn := phys * ctx.VirtFactor
	spec := gpu.KernelSpec{
		Name:             "sio.reduce",
		Threads:          int64(len(segs)) * ctx.VirtFactor,
		FlopsPerThread:   float64(virtIn) / float64(int64(len(segs))*ctx.VirtFactor),
		UncoalescedBytes: float64(virtIn) * 4 / 2, // per-thread strided segment reads
		BytesRead:        float64(virtIn) * 4 / 2,
		BytesWritten:     float64(int64(len(segs)) * ctx.VirtFactor * 8),
	}
	ctx.Launch(spec, func() {
		for _, s := range segs {
			var sum uint32
			for i := 0; i < s.Count; i++ {
				sum += vals[s.Start+i]
			}
			ctx.Emit(s.Key, sum)
		}
	})
	ctx.SetEmittedVirt(int64(len(segs)) * ctx.VirtFactor)
}

// NewJob builds the GPMR job for the given parameters. The returned
// physical dataset is also provided for reference checking.
func NewJob(p Params) (*core.Job[uint32], []uint32) {
	p = p.withDefaults()
	sc := apputil.PlanScale(p.Elements, p.PhysMax)
	data := workload.SparseInts(p.Seed, sc.PhysElems)
	n := apputil.NumChunks(sc.VirtElems, p.ChunkCap, p.GPUs)
	offs := workload.SplitEven(len(data), n)
	chunks := make([]core.Chunk, n)
	for i := range chunks {
		part := data[offs[i]:offs[i+1]]
		chunks[i] = &chunk{data: part, virt: int64(len(part)) * sc.Factor}
	}
	job := &core.Job[uint32]{
		Config: core.Config{
			Name:         "sio",
			GPUs:         p.GPUs,
			VirtFactor:   sc.Factor,
			ValBytes:     4,
			GatherOutput: false, // counts stay distributed, as in the paper
			Startup:      core.DefaultStartup,
		},
		Chunks:      chunks,
		Mapper:      mapper{},
		Partitioner: core.RoundRobin{},
		Reducer:     reducer{},
	}
	if p.UsePartialReduce {
		job.PartialReducer = partialReducer{}
	}
	if p.UseCombiner {
		job.Combiner = combiner{}
	}
	return job, data
}

// partialReducer folds like-keyed pairs within one chunk's emissions. With
// sparse keys almost every key is unique, so the fold buys nothing — the
// paper's reason for rejecting it.
type partialReducer struct{}

func (partialReducer) PartialReduce(ctx *core.MapContext[uint32], pairs *keyval.Pairs[uint32]) {
	virtN := pairs.VirtLen()
	spec := gpu.KernelSpec{
		Name:           "sio.partialreduce",
		Threads:        virtN,
		FlopsPerThread: 6, // hash probe per pair
		BytesRead:      float64(virtN * 8),
		BytesWritten:   float64(virtN * 8), // ~no compaction on sparse keys
	}
	ctx.LaunchForNamed(spec.Name, spec.Cost(ctx.Dev.Props), func() {
		sums := make(map[uint32]uint32, pairs.Len())
		order := make([]uint32, 0, pairs.Len())
		for i, k := range pairs.Keys {
			if _, ok := sums[k]; !ok {
				order = append(order, k)
			}
			sums[k] += pairs.Vals[i]
		}
		frac := float64(len(order)) / float64(pairs.Len())
		before := pairs.VirtLen()
		pairs.Reset()
		for _, k := range order {
			pairs.Append(k, sums[k])
		}
		pairs.Virt = int64(float64(before) * frac)
	})
}

// combiner merges like-keyed pairs once after all maps; for SIO this stages
// every pair through CPU memory and back over PCIe, which the paper found
// to be a net slowdown.
type combiner struct{}

func (combiner) Combine(ctx *core.MapContext[uint32], keys []uint32, segs []cudpp.Segment, vals []uint32) {
	var phys int64
	for _, s := range segs {
		phys += int64(s.Count)
	}
	virtIn := phys * ctx.VirtFactor
	spec := gpu.KernelSpec{
		Name:           "sio.combine",
		Threads:        int64(len(segs)) * ctx.VirtFactor,
		FlopsPerThread: float64(virtIn) / float64(int64(len(segs))*ctx.VirtFactor),
		BytesRead:      float64(virtIn * 8),
		BytesWritten:   float64(int64(len(segs)) * ctx.VirtFactor * 8),
	}
	ctx.Launch(spec, func() {
		for _, s := range segs {
			var sum uint32
			for i := 0; i < s.Count; i++ {
				sum += vals[s.Start+i]
			}
			ctx.Emit(s.Key, sum)
		}
	})
	ctx.SetEmittedVirt(int64(len(segs)) * ctx.VirtFactor)
}

// Reference computes ground-truth counts sequentially.
func Reference(data []uint32) map[uint32]uint32 {
	ref := make(map[uint32]uint32, len(data))
	for _, v := range data {
		ref[v]++
	}
	return ref
}
