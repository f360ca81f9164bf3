// Package kmc implements the paper's K-Means Clustering benchmark on GPMR:
// one iteration of assigning points to their closest center and computing
// the new centers.
//
// Following §5.3.4: the map stage uses persistent threads — the block reads
// points coalesced, each thread finds the closest center, the block
// reduces per-center partial sums, and (because GT200 has no floating-point
// atomics) the block's master thread accumulates into a per-block global
// memory pool; a second kernel reduces the pools. The job uses atomic-free
// Accumulation across chunks; emitted keys are ⟨center,dim⟩ sums plus one
// count key per center, giving coalesced writes. The Partitioner sends all
// keys of a center to one GPU; the reducer sums one key per thread. These
// optimizations cut map times by almost 8× versus the naive port, which is
// exactly how the cost descriptors are written.
package kmc

import (
	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/cudpp"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// Params configures one KMC job.
type Params struct {
	Points   int64 // virtual point count (paper: 1M–512M, 16 B/point)
	GPUs     int
	Centers  int // default 32
	Seed     uint64
	PhysMax  int   // physical point cap (default 1<<19)
	ChunkCap int64 // virtual points per chunk (default 8M = 128 MB)

	// NoAccumulation is the paper's ablation: the naive port that emits
	// ⟨center,coord⟩ pairs per point (non-coalesced writes, the full
	// dataset as intermediate state) instead of accumulating. The paper's
	// optimizations cut map times by almost 8× over this mode.
	NoAccumulation bool
}

func (p Params) withDefaults() Params {
	if p.Centers <= 0 {
		p.Centers = 32
	}
	if p.PhysMax <= 0 {
		p.PhysMax = 1 << 19
	}
	if p.ChunkCap <= 0 {
		p.ChunkCap = 8 << 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// dim is the point dimension: Table 1's 16-byte element, four float32
// coordinates. It is a constant, not a parameter, because nothing in the
// repository ever ran another value and the distance kernel is only fast
// when the four coordinates sit in registers (see nearest).
const dim = 4

type chunk struct {
	pts  []float32 // AoS: dim coords per point
	virt int64     // virtual point count
}

func (c *chunk) Elems() int       { return len(c.pts) / dim }
func (c *chunk) VirtBytes() int64 { return c.virt * dim * 4 }

// keyOf encodes ⟨center, slot⟩: slots 0..dim-1 are coordinate sums, slot
// dim is the influencing-point count.
func keyOf(center, slot int) uint32 { return uint32(center*(dim+1) + slot) }

// flatten lays the centers out contiguously, dim coordinates each, for
// nearest. Mappers call it once per launch: Built.Centers stays the
// caller's to overwrite between NewJob and Run.
func flatten(centers [][]float32) []float32 {
	flat := make([]float32, 0, len(centers)*dim)
	for _, c := range centers {
		flat = append(flat, c[:dim]...)
	}
	return flat
}

// nearest returns the index of the center closest to pt (squared Euclidean
// distance, the first minimum wins). It is the inner loop of both mappers
// and of most KMC host time, so the point's coordinates are loaded once and
// the loop over the flattened centers carries no inner dimension loop. The
// float32 operations are those of the straightforward loop in Reference, in
// its order, so the two agree bit for bit.
func nearest(centers, pt []float32) int {
	p0, p1, p2, p3 := pt[0], pt[1], pt[2], pt[3]
	best, bestD := 0, float32(0)
	for ci := 0; len(centers) >= dim; ci, centers = ci+1, centers[dim:] {
		d0, d1, d2, d3 := p0-centers[0], p1-centers[1], p2-centers[2], p3-centers[3]
		d := d0 * d0
		d += d1 * d1
		d += d2 * d2
		d += d3 * d3
		if ci == 0 || d < bestD {
			best, bestD = ci, d
		}
	}
	return best
}

// quantGrid is the fixed-point grid point coordinates snap to (2^-10).
// Grid-aligned addends make every float64 coordinate sum exact — each
// partial is a multiple of 2^-10 and the totals stay far below 2^52 grid
// units — so KMC's output is bit-identical no matter how chunks land on
// ranks: steal order, gang size, co-tenant contention, and failure
// recovery can reorder the accumulation freely without changing a single
// output byte. This is what lets the output-invariance tests demand
// byte-equal answers from a floating-point app.
const quantGrid = 1 << 10

// quantize snaps coordinates onto the grid, toward zero.
func quantize(pts []float32) {
	for i, v := range pts {
		pts[i] = float32(int64(v*quantGrid)) / quantGrid
	}
}

// mapper assigns points to centers with persistent threads and accumulates
// per-center sums into the resident pairs.
type mapper struct {
	centers [][]float32
}

func (m *mapper) Map(ctx *core.MapContext[float64], c core.Chunk) {
	ch := c.(*chunk)
	k := len(m.centers)
	res := ctx.Resident()
	if res.Len() == 0 {
		init := gpu.KernelSpec{Name: "kmc.init", Threads: int64(k * (dim + 1))}
		ctx.Launch(init, func() {
			res.Grow(k * (dim + 1))
			for ci := 0; ci < k; ci++ {
				for s := 0; s <= dim; s++ {
					res.Append(keyOf(ci, s), 0)
				}
			}
			res.Virt = int64(k * (dim + 1))
		})
	}
	virtN := ch.virt
	const blockSize = 256
	blocks := (virtN + blockSize - 1) / blockSize
	// Primary kernel: distance to every center plus block-level reduction.
	primary := gpu.KernelSpec{
		Name:           "kmc.map",
		Threads:        virtN,
		FlopsPerThread: float64(3*dim*k + dim + 8),
		BytesRead:      float64(virtN * dim * 4),
		BytesWritten:   float64(blocks * int64(k*(dim+1)) * 4 / 8), // per-block pools, amortized
	}
	centers := flatten(m.centers)
	ctx.Launch(primary, func() {
		scale := float64(ctx.VirtFactor)
		for pts := ch.pts; len(pts) >= dim; pts = pts[dim:] {
			pt := pts[:dim]
			sums := res.Vals[nearest(centers, pt)*(dim+1):][:dim+1]
			for d, x := range pt {
				sums[d] += float64(x) * scale
			}
			sums[dim] += scale
		}
	})
	// Pool-reduction kernel folds the per-block pools into the resident set.
	poolReduce := gpu.KernelSpec{
		Name:      "kmc.poolreduce",
		Threads:   int64(k * (dim + 1)),
		BytesRead: float64(blocks * int64(k*(dim+1)) * 4 / 8),
	}
	ctx.Launch(poolReduce, nil)
}

// partitioner routes all keys of one center to the same GPU.
type partitioner struct{}

func (partitioner) Rank(key uint32, nRanks int) int {
	return int(key) / (dim + 1) % nRanks
}

// reducer sums one key per thread (centers and dims are few; reduce time
// is negligible, as the paper reports).
type reducer struct{}

func (reducer) ChunkValueSets(sets int, virtVals, free int64) int {
	return core.FitAllChunking(sets, virtVals, free, 4)
}

func (reducer) Reduce(ctx *core.ReduceContext[float64], keys []uint32, segs []cudpp.Segment, vals []float64) {
	var phys int64
	for _, s := range segs {
		phys += int64(s.Count)
	}
	spec := gpu.KernelSpec{
		Name:           "kmc.reduce",
		Threads:        int64(len(segs)),
		FlopsPerThread: float64(phys) / float64(len(segs)),
		BytesRead:      float64(phys * 4),
		BytesWritten:   float64(len(segs) * 8),
	}
	ctx.Launch(spec, func() {
		for _, s := range segs {
			var sum float64
			for i := 0; i < s.Count; i++ {
				sum += vals[s.Start+i]
			}
			ctx.Emit(s.Key, sum)
		}
	})
	ctx.SetEmittedVirt(int64(len(segs)))
}

// Built bundles a KMC job with its inputs for reference checking.
type Built struct {
	Job     *core.Job[float64]
	Points  []float32 // AoS: 4 coords per point
	Centers [][]float32
}

// NewJob builds the GPMR job for one k-means iteration.
func NewJob(p Params) *Built {
	p = p.withDefaults()
	sc := apputil.PlanScale(p.Points, p.PhysMax)
	pts := workload.Points(p.Seed, sc.PhysElems, dim)
	quantize(pts)
	centers := make([][]float32, p.Centers)
	crng := workload.NewRNG(p.Seed + 7)
	for i := range centers {
		c := make([]float32, dim)
		for d := range c {
			c[d] = crng.Float32() * 100
		}
		centers[i] = c
	}
	nChunks := apputil.NumChunks(sc.VirtElems, p.ChunkCap, p.GPUs)
	offs := workload.SplitEven(sc.PhysElems, nChunks)
	chunks := make([]core.Chunk, nChunks)
	for i := range chunks {
		chunks[i] = &chunk{
			pts:  pts[offs[i]*dim : offs[i+1]*dim],
			virt: int64(offs[i+1]-offs[i]) * sc.Factor,
		}
	}
	job := &core.Job[float64]{
		Config: core.Config{
			Name:         "kmc",
			GPUs:         p.GPUs,
			VirtFactor:   sc.Factor,
			ValBytes:     4,
			Accumulate:   true,
			GatherOutput: true,
			Startup:      core.DefaultStartup,
		},
		Chunks:      chunks,
		Mapper:      &mapper{centers: centers},
		Partitioner: partitioner{},
		Reducer:     reducer{},
	}
	if p.NoAccumulation {
		job.Config.Accumulate = false
		job.Config.Name = "kmc-noaccum"
		job.Mapper = &emitMapper{centers: centers}
	}
	return &Built{Job: job, Points: pts, Centers: centers}
}

// emitMapper is the ablation mapper: the direct CPU port emitting one pair
// per ⟨center, dimension⟩ per point with non-coalesced writes.
type emitMapper struct {
	centers [][]float32
}

func (m *emitMapper) Map(ctx *core.MapContext[float64], c core.Chunk) {
	ch := c.(*chunk)
	k := len(m.centers)
	virtN := ch.virt
	spec := gpu.KernelSpec{
		Name:             "kmc.map.emit",
		Threads:          virtN,
		FlopsPerThread:   float64(3 * dim * k),
		UncoalescedBytes: float64(virtN * dim * 4 * 2), // loads AND pair writes scatter
	}
	centers := flatten(m.centers)
	ctx.Launch(spec, func() {
		scale := float64(ctx.VirtFactor)
		ctx.Emitted().Grow(ch.Elems() * (dim + 1))
		for pts := ch.pts; len(pts) >= dim; pts = pts[dim:] {
			pt := pts[:dim]
			best := nearest(centers, pt)
			for d, x := range pt {
				ctx.Emit(keyOf(best, d), float64(x)*scale)
			}
			ctx.Emit(keyOf(best, dim), scale)
		}
	})
	ctx.SetEmittedVirt(virtN * (dim + 1))
}

// NewCenters converts the job's gathered output into the next iteration's
// centers (sum/count per center), in units of physical points.
func NewCenters(out map[uint32]float64, k int, virtFactor int64) [][]float32 {
	centers := make([][]float32, k)
	for ci := 0; ci < k; ci++ {
		c := make([]float32, dim)
		count := out[keyOf(ci, dim)]
		if count > 0 {
			for d := 0; d < dim; d++ {
				c[d] = float32(out[keyOf(ci, d)] / count)
			}
		}
		centers[ci] = c
	}
	return centers
}

// Reference computes the per-key sums sequentially (scaled by virtFactor to
// match the job's accumulated values). It is the oracle the mappers are
// checked against, so it deliberately shares no code with nearest.
func (b *Built) Reference(virtFactor int64) map[uint32]float64 {
	ref := make(map[uint32]float64)
	n := len(b.Points) / dim
	for i := 0; i < n; i++ {
		pt := b.Points[i*dim : (i+1)*dim]
		best, bestD := 0, float32(0)
		for ci, ctr := range b.Centers {
			var d float32
			for d2 := 0; d2 < dim; d2++ {
				diff := pt[d2] - ctr[d2]
				d += diff * diff
			}
			if ci == 0 || d < bestD {
				best, bestD = ci, d
			}
		}
		for d2 := 0; d2 < dim; d2++ {
			ref[keyOf(best, d2)] += float64(pt[d2]) * float64(virtFactor)
		}
		ref[keyOf(best, dim)] += float64(virtFactor)
	}
	return ref
}
