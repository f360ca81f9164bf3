// Package wo implements the paper's Word Occurrence benchmark on GPMR:
// count word occurrences in a corpus of random text over a 43,000-word
// dictionary.
//
// Following §5.3.3: string keys are replaced by a minimal perfect hash to
// unique 4-byte integers; the job uses Accumulation (an initial map emits
// all 43k keys with value 0, then every emission is a fire-and-forget
// atomic increment into the resident emit space), which nearly removes the
// communication that bottlenecks CPU implementations. No Partitioner is
// used below a GPU-count threshold (all pairs to one node); past the
// crossover the default round-robin Partitioner is enabled. The reducer
// assigns each key to a warp, reading and summing coalesced — the redesign
// that cut reduce times by an order of magnitude.
package wo

import (
	"fmt"
	"strings"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/cudpp"
	"repro/internal/gpu"
	"repro/internal/mph"
	"repro/internal/workload"
)

// PartitionerCrossover is the GPU count above which the round-robin
// Partitioner is enabled; at or below it all pairs go to a single reducer
// (the paper enables partitioning "once the number of GPUs crosses a
// certain threshold").
const PartitionerCrossover = 8

// Params configures one WO job.
type Params struct {
	Bytes    int64 // virtual corpus size in bytes (paper: 1M–512M)
	GPUs     int
	Seed     uint64
	PhysMax  int   // physical corpus cap in bytes (default 1<<20)
	ChunkCap int64 // virtual bytes per chunk (default 32M, "millions of bytes")
	DictSize int   // dictionary words (default 43,000)

	// ForcePartitioner overrides the crossover: <0 never, >0 always, 0 auto.
	ForcePartitioner int

	// NoAccumulation is the paper's ablation: emit one pair per word as SIO
	// does instead of accumulating on the GPU. The paper saw "dramatically
	// worse performance" in this mode — WO behaved like SIO.
	NoAccumulation bool
}

func (p Params) withDefaults() Params {
	if p.PhysMax <= 0 {
		p.PhysMax = 1 << 20
	}
	if p.ChunkCap <= 0 {
		p.ChunkCap = 32 << 20
	}
	if p.DictSize <= 0 {
		p.DictSize = workload.DictionarySize
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

type chunk struct {
	lines     []string
	words     int
	virtBytes int64
}

func (c *chunk) Elems() int       { return c.words }
func (c *chunk) VirtBytes() int64 { return c.virtBytes }

// mapper scans one line per thread, hashes each word with the minimal
// perfect hash, and accumulates counts with atomic increments into the
// GPU-resident emit space.
type mapper struct {
	table    *mph.Table
	dictSize int
	avgWord  float64
}

func (m *mapper) Map(ctx *core.MapContext[uint32], c core.Chunk) {
	ch := c.(*chunk)
	res := ctx.Resident()
	virtWords := int64(ch.words) * ctx.VirtFactor
	virtLines := int64(len(ch.lines)) * ctx.VirtFactor
	if res.Len() == 0 {
		// Initial map task: emit all dictionary keys with value 0.
		init := gpu.KernelSpec{
			Name:         "wo.init",
			Threads:      int64(m.dictSize),
			BytesWritten: float64(m.dictSize * 8),
		}
		ctx.Launch(init, func() {
			res.Grow(m.dictSize)
			for k := 0; k < m.dictSize; k++ {
				res.Append(uint32(k), 0)
			}
			res.Virt = int64(m.dictSize)
		})
	}
	spec := gpu.KernelSpec{
		Name:           "wo.map",
		Threads:        virtLines,
		FlopsPerThread: float64(ch.virtBytes) / float64(virtLines) * 4, // scan+hash per byte
		BytesRead:      float64(ch.virtBytes),
		Atomics:        float64(virtWords),
		AtomicConflict: 1 + float64(virtWords)/float64(m.dictSize)/1024,
	}
	ctx.Launch(spec, func() {
		for _, line := range ch.lines {
			for _, w := range strings.Fields(line) {
				res.Vals[m.table.Lookup(w)]++
			}
		}
	})
}

// reducer sums each key's values with one warp per key, fully coalesced.
type reducer struct{ dictSize int }

func (reducer) ChunkValueSets(sets int, virtVals, free int64) int {
	return core.FitAllChunking(sets, virtVals, free, 4)
}

func (r reducer) Reduce(ctx *core.ReduceContext[uint32], keys []uint32, segs []cudpp.Segment, vals []uint32) {
	var phys int64
	for _, s := range segs {
		phys += int64(s.Count)
	}
	spec := gpu.KernelSpec{
		Name:           "wo.reduce",
		Threads:        int64(len(segs)) * 32, // warp per key
		FlopsPerThread: float64(phys)/float64(len(segs))/32 + 5,
		BytesRead:      float64(phys * 4), // coalesced warp-wide reads
		BytesWritten:   float64(len(segs) * 8),
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
	ctx.SetEmittedVirt(int64(len(segs)))
}

// Built bundles a WO job with the lookup structures tests need.
type Built struct {
	Job   *core.Job[uint32]
	Dict  []string
	Table *mph.Table
	Lines []string // physical corpus
}

// NewJob builds the GPMR job for the given parameters, panicking where
// BuildJob returns an error.
func NewJob(p Params) *Built {
	b, err := BuildJob(p)
	if err != nil {
		panic(err)
	}
	return b
}

// BuildJob builds the GPMR job for the given parameters, or reports that
// the dictionary's minimal perfect hash could not be built.
func BuildJob(p Params) (*Built, error) {
	p = p.withDefaults()
	dict := workload.Dictionary(p.Seed, p.DictSize)
	table, err := mph.Build(dict)
	if err != nil {
		return nil, fmt.Errorf("wo: mph build failed for a %d-word dictionary: %w", p.DictSize, err)
	}
	sc := apputil.PlanScale(p.Bytes, p.PhysMax)
	lines := workload.Text(p.Seed+1, dict, sc.PhysElems)
	nChunks := apputil.NumChunks(sc.VirtElems, p.ChunkCap, p.GPUs)
	offs := workload.SplitEven(len(lines), nChunks)
	chunks := make([]core.Chunk, nChunks)
	var physBytes int64
	for _, ln := range lines {
		physBytes += int64(len(ln)) + 1
	}
	for i := range chunks {
		part := lines[offs[i]:offs[i+1]]
		words := 0
		var bytes int64
		for _, ln := range part {
			words += len(strings.Fields(ln))
			bytes += int64(len(ln)) + 1
		}
		chunks[i] = &chunk{lines: part, words: words, virtBytes: bytes * sc.Factor}
	}
	usePart := p.GPUs > PartitionerCrossover
	if p.ForcePartitioner > 0 {
		usePart = true
	} else if p.ForcePartitioner < 0 {
		usePart = false
	}
	var part core.Partitioner
	if usePart {
		part = core.RoundRobin{}
	}
	job := &core.Job[uint32]{
		Config: core.Config{
			Name:         "wo",
			GPUs:         p.GPUs,
			VirtFactor:   sc.Factor,
			ValBytes:     4,
			Accumulate:   true,
			GatherOutput: true,
			Startup:      core.DefaultStartup,
		},
		Chunks:      chunks,
		Mapper:      &mapper{table: table, dictSize: p.DictSize},
		Partitioner: part,
		Reducer:     reducer{dictSize: p.DictSize},
	}
	if p.NoAccumulation {
		job.Config.Accumulate = false
		job.Config.Name = "wo-noaccum"
		job.Mapper = &emitMapper{table: table}
	}
	return &Built{Job: job, Dict: dict, Table: table, Lines: lines}, nil
}

// emitMapper is the ablation mapper: one ⟨hash(word),1⟩ pair per word,
// exactly the SIO-like traffic pattern the paper measured before adding
// Accumulation.
type emitMapper struct{ table *mph.Table }

func (m *emitMapper) Map(ctx *core.MapContext[uint32], c core.Chunk) {
	ch := c.(*chunk)
	virtWords := int64(ch.words) * ctx.VirtFactor
	virtLines := int64(len(ch.lines)) * ctx.VirtFactor
	spec := gpu.KernelSpec{
		Name:           "wo.map.emit",
		Threads:        virtLines,
		FlopsPerThread: float64(ch.virtBytes) / float64(virtLines) * 4,
		BytesRead:      float64(ch.virtBytes),
		BytesWritten:   float64(virtWords * 8),
	}
	ctx.Launch(spec, func() {
		ctx.Emitted().Grow(ch.words)
		for _, line := range ch.lines {
			for _, w := range strings.Fields(line) {
				ctx.Emit(m.table.Lookup(w), 1)
			}
		}
	})
	ctx.SetEmittedVirt(virtWords)
}

// Reference counts word occurrences sequentially, keyed by hash slot.
func (b *Built) Reference() map[uint32]uint32 {
	ref := make(map[uint32]uint32)
	for _, ln := range b.Lines {
		for _, w := range strings.Fields(ln) {
			ref[b.Table.Lookup(w)]++
		}
	}
	return ref
}
