// Package mm implements the paper's Matrix Multiplication benchmark on
// GPMR: C = A × B for large square matrices.
//
// Following §5.3.1: the naive vector-vector CPU formulation is abandoned
// for a hierarchical, cache-oblivious tiling — the matrices are cut into
// uniform tiles, each map chunk computes full inner products of tile pairs
// with shared-memory blocking, and the per-(i,j) partial product tiles are
// summed by a *second* MapReduce whose map adds partial sums (Sort and
// Reduce are bypassed; a single-key reduction would have to be in-core,
// which large matrices cannot satisfy). Chunks are assigned so a result
// tile's partial products are produced on the tile's owner GPU, making MM
// compute-bound and nearly perfectly scalable.
//
// Scaling note: the simulation uses the paper's virtual tile edge of 1024
// for cost accounting, while computing on small physical tiles so results
// remain exactly checkable against a sequential multiply.
package mm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// MaxVirtTile and MinVirtTile bound the virtual tile edge: the paper
// transforms the multiplication into N³ uniform tile multiplications of at
// least 1024² (subdividing into 256³ pieces and 16² shared-memory blocks),
// shrinking the tile edge for small matrices so enough map chunks exist to
// cover the GPUs. Even at the 256 floor the kernel retains ~64 flops/byte,
// keeping MM compute-bound.
const (
	MaxVirtTile = 1024
	MinVirtTile = 256
)

// Params configures one MM run.
type Params struct {
	Dim      int64 // virtual matrix edge (paper: 1024, 2048, 4096, 16384)
	GPUs     int
	Seed     uint64
	PhysTile int // physical tile edge (default 8)
}

func (p Params) withDefaults() (Params, error) {
	if p.PhysTile <= 0 {
		p.PhysTile = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Dim < MinVirtTile || p.Dim%MinVirtTile != 0 {
		return p, fmt.Errorf("mm: Dim must be a positive multiple of %d, got %d", MinVirtTile, p.Dim)
	}
	return p, nil
}

// tile is one physical tile payload.
type tile []float32

// multChunk is one map chunk: inner-product terms p ∈ [p0, p0+pn) for
// result tile (i,j). When the whole strip's tiles fit in core, one chunk
// covers the full inner product and accumulates in GPU memory, emitting a
// single tile; strips are split when they would not fit — the reason the
// paper runs a second MapReduce to add partial sums — or to expose enough
// chunks for the GPU count.
type multChunk struct {
	i, j   int
	p0, pn int
	t      int   // tiles per side
	tv     int64 // virtual tile edge
	dp     int   // physical tile edge
	a, b   []float32
	phys   int // physical matrix edge
}

func (c *multChunk) Elems() int { return c.pn }

// VirtBytes charges streaming the strip's A and B tiles.
func (c *multChunk) VirtBytes() int64 { return int64(2*c.pn) * c.tv * c.tv * 4 }

// mapper computes one partial product tile per chunk (terms accumulate in
// GPU memory within the chunk); job 2 adds partial products across chunks.
type mapper struct{}

func (mapper) Map(ctx *core.MapContext[tile], c core.Chunk) {
	ch := c.(*multChunk)
	dp, phys := ch.dp, ch.phys
	tv := ch.tv
	spec := gpu.KernelSpec{
		Name:           "mm.map",
		Threads:        tv * tv,
		FlopsPerThread: 2 * float64(tv) * float64(ch.pn),
		// Shared-memory blocking: each element is re-read Dv/32 times.
		BytesRead:    float64(int64(ch.pn) * tv * tv * tv / 32 * 4 * 2),
		BytesWritten: float64(tv * tv * 4),
	}
	ctx.Launch(spec, func() {
		out := make(tile, dp*dp)
		for p := ch.p0; p < ch.p0+ch.pn; p++ {
			for r := 0; r < dp; r++ {
				for k := 0; k < dp; k++ {
					av := ch.a[(ch.i*dp+r)*phys+p*dp+k]
					brow := ch.b[(p*dp+k)*phys+ch.j*dp : (p*dp+k)*phys+ch.j*dp+dp]
					for cc := 0; cc < dp; cc++ {
						out[r*dp+cc] += av * brow[cc]
					}
				}
			}
		}
		ctx.Emit(uint32(ch.i*ch.t+ch.j), out)
	})
	ctx.SetEmittedVirt(1)
}

// owner assigns result tile keys to ranks; job-1 chunk placement uses the
// same function so partition sends stay local.
type owner struct{}

func (owner) Rank(key uint32, nRanks int) int { return int(key) % nRanks }

// sumChunk is a job-2 chunk: the partial tiles received for one result tile.
type sumChunk struct {
	key   uint32
	parts []tile
	tv    int64
	dp    int
}

func (c *sumChunk) Elems() int       { return len(c.parts) }
func (c *sumChunk) VirtBytes() int64 { return int64(len(c.parts)) * c.tv * c.tv * 4 }

// sumMapper adds partial tiles element-wise — the second MapReduce's map.
type sumMapper struct{}

func (sumMapper) Map(ctx *core.MapContext[tile], c core.Chunk) {
	ch := c.(*sumChunk)
	tv := ch.tv
	spec := gpu.KernelSpec{
		Name:           "mm.sum",
		Threads:        tv * tv,
		FlopsPerThread: float64(len(ch.parts)),
		BytesRead:      float64(int64(len(ch.parts)) * tv * tv * 4),
		BytesWritten:   float64(tv * tv * 4),
	}
	ctx.Launch(spec, func() {
		out := make(tile, len(ch.parts[0]))
		for _, p := range ch.parts {
			for i, v := range p {
				out[i] += v
			}
		}
		ctx.Emit(ch.key, out)
	})
	ctx.SetEmittedVirt(1)
}

// Built bundles the two-job MM pipeline.
type Built struct {
	Params Params
	T      int   // tiles per side
	Tv     int64 // virtual tile edge
	Phys   int   // physical matrix edge
	A, B   []float32
	Job1   *core.Job[tile]
}

// New prepares the MM run (job 1; job 2 is built from job 1's outputs).
func New(p Params) (*Built, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	// Tile-edge planning: start at the 1024 maximum and halve (down to the
	// 256 floor) until the T² result tiles can cover the GPU count.
	tv := int64(MaxVirtTile)
	if tv > p.Dim {
		tv = p.Dim
	}
	for tv > MinVirtTile && (p.Dim/tv)*(p.Dim/tv) < 2*int64(p.GPUs) {
		tv /= 2
	}
	t := int(p.Dim / tv)
	phys := t * p.PhysTile
	a := workload.Matrix(p.Seed, phys)
	b := workload.Matrix(p.Seed+1, phys)
	// Strip planning: full inner products when they fit in a quarter of
	// device memory (2·pn+1 tiles resident) and T² chunks already cover the
	// GPUs; otherwise split strips for memory or parallelism.
	maxStripMem := int(gpu.GT200().MemBytes / 4 / (2 * tv * tv * 4))
	if maxStripMem < 1 {
		maxStripMem = 1
	}
	strips := (2*p.GPUs + t*t - 1) / (t * t) // enough chunks for the GPUs
	if minStrips := (t + maxStripMem - 1) / maxStripMem; strips < minStrips {
		strips = minStrips
	}
	if strips > t {
		strips = t
	}
	stripLen := (t + strips - 1) / strips
	chunks := make([]core.Chunk, 0, t*t*strips)
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			for p0 := 0; p0 < t; p0 += stripLen {
				pn := stripLen
				if p0+pn > t {
					pn = t - p0
				}
				chunks = append(chunks, &multChunk{
					i: i, j: j, p0: p0, pn: pn,
					t: t, tv: tv, dp: p.PhysTile, a: a, b: b, phys: phys,
				})
			}
		}
	}
	ow := owner{}
	job1 := &core.Job[tile]{
		Config: core.Config{
			Name:        "mm.multiply",
			GPUs:        p.GPUs,
			VirtFactor:  1,
			ValBytes:    tv * tv * 4,
			DisableSort: true,
			Startup:     core.DefaultStartup,
		},
		Chunks: chunks,
		Assign: func(ci int) int {
			c := chunks[ci].(*multChunk)
			return ow.Rank(uint32(c.i*t+c.j), p.GPUs)
		},
		Mapper:      mapper{},
		Partitioner: ow,
	}
	return &Built{Params: p, T: t, Tv: tv, Phys: phys, A: a, B: b, Job1: job1}, nil
}

// Run executes both MapReduce jobs and returns the result tiles per rank
// plus the two traces.
func (b *Built) Run() (perRank []map[uint32]tile, tr1, tr2 *core.Trace, err error) {
	res1, err := b.Job1.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	// Build job 2: group each rank's received partial tiles by result key.
	var chunks []core.Chunk
	var assign []int
	for r := range res1.PerRank {
		groups := make(map[uint32]*sumChunk)
		var order []uint32
		pr := &res1.PerRank[r]
		for i, k := range pr.Keys {
			g, ok := groups[k]
			if !ok {
				g = &sumChunk{key: k, tv: b.Tv, dp: b.Params.PhysTile}
				groups[k] = g
				order = append(order, k)
			}
			g.parts = append(g.parts, pr.Vals[i])
		}
		for _, k := range order {
			chunks = append(chunks, groups[k])
			assign = append(assign, r)
		}
	}
	if len(chunks) == 0 {
		return nil, nil, nil, fmt.Errorf("mm: job 1 produced no tiles")
	}
	assignCopy := assign
	job2 := &core.Job[tile]{
		Config: core.Config{
			Name:        "mm.addsums",
			GPUs:        b.Params.GPUs,
			VirtFactor:  1,
			ValBytes:    b.Tv * b.Tv * 4,
			DisableSort: true,
			// The second pass runs on whatever execution backend and
			// flight recorder the first was configured with.
			Workers: b.Job1.Config.Workers,
			Obs:     b.Job1.Config.Obs,
		},
		Chunks:      chunks,
		Assign:      func(ci int) int { return assignCopy[ci] },
		Mapper:      sumMapper{},
		Partitioner: owner{},
	}
	res2, err := job2.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	perRank = make([]map[uint32]tile, len(res2.PerRank))
	for r := range res2.PerRank {
		m := make(map[uint32]tile)
		pr := &res2.PerRank[r]
		for i, k := range pr.Keys {
			if have, ok := m[k]; ok {
				// Partial tiles that crossed job-2 chunks: add.
				for e, v := range pr.Vals[i] {
					have[e] += v
				}
			} else {
				m[k] = pr.Vals[i]
			}
		}
		perRank[r] = m
	}
	return perRank, res1.Trace, res2.Trace, nil
}

// Reassemble stitches per-rank result tiles into the full physical C.
func (b *Built) Reassemble(perRank []map[uint32]tile) []float32 {
	dp, t := b.Params.PhysTile, b.T
	c := make([]float32, b.Phys*b.Phys)
	for _, m := range perRank {
		for key, tl := range m {
			i, j := int(key)/t, int(key)%t
			for r := 0; r < dp; r++ {
				copy(c[(i*dp+r)*b.Phys+j*dp:(i*dp+r)*b.Phys+j*dp+dp], tl[r*dp:(r+1)*dp])
			}
		}
	}
	return c
}

// Reference multiplies the physical matrices sequentially.
func (b *Built) Reference() []float32 {
	n := b.Phys
	c := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := b.A[i*n+k]
			if av == 0 {
				continue
			}
			brow := b.B[k*n : k*n+n]
			crow := c[i*n : i*n+n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}
