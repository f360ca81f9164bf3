// Package lr implements the paper's Linear Regression benchmark on GPMR:
// fit y = a + b·x over a large sample set.
//
// Following §5.3.5: chunks pack (x, y) pairs tightly; the map stage uses
// persistent threads with internal Accumulation and emits only six keys on
// completion (n, Σx, Σy, Σx², Σxy, Σy²); no Partitioner is used (network
// overhead is minimal either way); the default sort is used and reductions
// are key-per-thread with virtually nil reduce time. Per-element map work
// is tiny, so communication limits scaling past a few GPUs — LR is the
// paper's light-compute stress case.
package lr

import (
	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/cudpp"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// The six statistic keys.
const (
	KeyN uint32 = iota
	KeySumX
	KeySumY
	KeySumXX
	KeySumXY
	KeySumYY
	NumKeys
)

// Params configures one LR job.
type Params struct {
	Points   int64 // virtual sample count (paper: 1M–512M, 8 B/point)
	GPUs     int
	Seed     uint64
	PhysMax  int   // physical cap (default 1<<19)
	ChunkCap int64 // virtual points per chunk (default 16M = 128 MB)

	// Ground-truth model for the synthetic data.
	A, B, Noise float64

	// NoAccumulation is the paper's ablation: the direct port emits six
	// pairs per point instead of accumulating sums on the GPU.
	NoAccumulation bool
}

func (p Params) withDefaults() Params {
	if p.PhysMax <= 0 {
		p.PhysMax = 1 << 19
	}
	if p.ChunkCap <= 0 {
		p.ChunkCap = 16 << 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.A == 0 && p.B == 0 {
		p.A, p.B = 2, 3
	}
	if p.Noise == 0 {
		p.Noise = 0.5
	}
	return p
}

type chunk struct {
	xy   []float64 // x0 y0 x1 y1 ...
	virt int64     // virtual point count
}

func (c *chunk) Elems() int       { return len(c.xy) / 2 }
func (c *chunk) VirtBytes() int64 { return c.virt * 8 } // 8-byte elements (Table 1)

// mapper accumulates the six sums with persistent threads.
type mapper struct{}

func (mapper) Map(ctx *core.MapContext[float64], c core.Chunk) {
	ch := c.(*chunk)
	res := ctx.Resident()
	if res.Len() == 0 {
		init := gpu.KernelSpec{Name: "lr.init", Threads: int64(NumKeys)}
		ctx.Launch(init, func() {
			res.Grow(int(NumKeys))
			for k := uint32(0); k < NumKeys; k++ {
				res.Append(k, 0)
			}
			res.Virt = int64(NumKeys)
		})
	}
	virtN := ch.virt
	const blockSize = 256
	blocks := (virtN + blockSize - 1) / blockSize
	spec := gpu.KernelSpec{
		Name:           "lr.map",
		Threads:        virtN,
		FlopsPerThread: 10,
		BytesRead:      float64(virtN * 8),
		BytesWritten:   float64(blocks * int64(NumKeys) * 4 / 8),
	}
	ctx.Launch(spec, func() {
		scale := float64(ctx.VirtFactor)
		for i := 0; i < ch.Elems(); i++ {
			x, y := ch.xy[2*i], ch.xy[2*i+1]
			res.Vals[KeyN] += scale
			res.Vals[KeySumX] += x * scale
			res.Vals[KeySumY] += y * scale
			res.Vals[KeySumXX] += x * x * scale
			res.Vals[KeySumXY] += x * y * scale
			res.Vals[KeySumYY] += y * y * scale
		}
	})
	// Block-pool fold, as in KMC (no float atomics on GT200).
	ctx.Launch(gpu.KernelSpec{
		Name:      "lr.poolreduce",
		Threads:   int64(NumKeys),
		BytesRead: float64(blocks * int64(NumKeys) * 4 / 8),
	}, nil)
}

// reducer sums each of the six keys, one per thread.
type reducer struct{}

func (reducer) ChunkValueSets(sets int, virtVals, free int64) int {
	return core.FitAllChunking(sets, virtVals, free, 8)
}

func (reducer) Reduce(ctx *core.ReduceContext[float64], keys []uint32, segs []cudpp.Segment, vals []float64) {
	var phys int64
	for _, s := range segs {
		phys += int64(s.Count)
	}
	spec := gpu.KernelSpec{
		Name:           "lr.reduce",
		Threads:        int64(len(segs)),
		FlopsPerThread: float64(phys) / float64(len(segs)),
		BytesRead:      float64(phys * 8),
		BytesWritten:   float64(len(segs) * 12),
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

// Built bundles an LR job with its inputs.
type Built struct {
	Job *core.Job[float64]
	XY  []float64
}

// NewJob builds the GPMR job.
func NewJob(p Params) *Built {
	p = p.withDefaults()
	sc := apputil.PlanScale(p.Points, p.PhysMax)
	xy := workload.XYPairs(p.Seed, sc.PhysElems, p.A, p.B, p.Noise)
	nChunks := apputil.NumChunks(sc.VirtElems, p.ChunkCap, p.GPUs)
	offs := workload.SplitEven(sc.PhysElems, nChunks)
	chunks := make([]core.Chunk, nChunks)
	for i := range chunks {
		chunks[i] = &chunk{
			xy:   xy[offs[i]*2 : offs[i+1]*2],
			virt: int64(offs[i+1]-offs[i]) * sc.Factor,
		}
	}
	job := &core.Job[float64]{
		Config: core.Config{
			Name:         "lr",
			GPUs:         p.GPUs,
			VirtFactor:   sc.Factor,
			ValBytes:     8,
			Accumulate:   true,
			GatherOutput: true,
			Startup:      core.DefaultStartup,
			// No Partitioner: six keys all go to rank 0, as the paper.
		},
		Chunks:  chunks,
		Mapper:  mapper{},
		Reducer: reducer{},
	}
	if p.NoAccumulation {
		job.Config.Accumulate = false
		job.Config.Name = "lr-noaccum"
		job.Mapper = emitMapper{}
	}
	return &Built{Job: job, XY: xy}
}

// emitMapper is the ablation mapper: the direct CPU port emitting all six
// statistics as pairs for every point.
type emitMapper struct{}

func (emitMapper) Map(ctx *core.MapContext[float64], c core.Chunk) {
	ch := c.(*chunk)
	virtN := ch.virt
	spec := gpu.KernelSpec{
		Name:             "lr.map.emit",
		Threads:          virtN,
		FlopsPerThread:   10,
		BytesRead:        float64(virtN * 8),
		UncoalescedBytes: float64(virtN * 6 * 12), // six scattered pair writes
	}
	ctx.Launch(spec, func() {
		scale := float64(ctx.VirtFactor)
		ctx.Emitted().Grow(ch.Elems() * int(NumKeys))
		for i := 0; i < ch.Elems(); i++ {
			x, y := ch.xy[2*i], ch.xy[2*i+1]
			ctx.Emit(KeyN, scale)
			ctx.Emit(KeySumX, x*scale)
			ctx.Emit(KeySumY, y*scale)
			ctx.Emit(KeySumXX, x*x*scale)
			ctx.Emit(KeySumXY, x*y*scale)
			ctx.Emit(KeySumYY, y*y*scale)
		}
	})
	ctx.SetEmittedVirt(virtN * 6)
}

// Fit converts gathered sums into the model (a, b).
func Fit(sums map[uint32]float64) (a, b float64) {
	n := sums[KeyN]
	if n == 0 {
		return 0, 0
	}
	sx, sy := sums[KeySumX], sums[KeySumY]
	sxx, sxy := sums[KeySumXX], sums[KeySumXY]
	b = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a = (sy - b*sx) / n
	return a, b
}

// Reference computes the six sums sequentially (virtFactor-scaled).
func (bu *Built) Reference(virtFactor int64) map[uint32]float64 {
	ref := make(map[uint32]float64, NumKeys)
	scale := float64(virtFactor)
	for i := 0; i+1 < len(bu.XY); i += 2 {
		x, y := bu.XY[i], bu.XY[i+1]
		ref[KeyN] += scale
		ref[KeySumX] += x * scale
		ref[KeySumY] += y * scale
		ref[KeySumXX] += x * x * scale
		ref[KeySumXY] += x * y * scale
		ref[KeySumYY] += y * y * scale
	}
	return ref
}
