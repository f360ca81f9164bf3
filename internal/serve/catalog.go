package serve

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/apps/kmc"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/core"
)

// Params are a submission's job parameters: a flat integer map, because
// every knob the catalog exposes is a count, a size, or a seed. The shape
// is deliberate — integer params marshal canonically (JSON object keys
// sort), so the recorded arrival trace is byte-stable and a replayed build
// sees exactly the submitted values.
type Params map[string]int64

// get reads a parameter with a default.
func (p Params) get(key string, def int64) int64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Builder constructs one runnable job from submitted parameters. name is
// the unique job name the service assigned (it appears in cluster traces
// and deadlock diagnostics); implementations must set it on the job's
// Config and must build deterministically — same name and params, same
// job, byte for byte. That determinism is what makes the arrival trace a
// complete record of a live run.
type Builder struct {
	// Keys is the full set of accepted parameter names; submissions using
	// any other key are rejected before they reach the cluster.
	Keys []string
	// Build constructs the job.
	Build func(name string, p Params) (core.Runnable, error)
}

// Catalog maps submission kinds to job builders. A service accepts only
// catalogued kinds: the catalog is both the API surface tenants see and
// the replay guarantee (a trace can be re-run anywhere the same catalog
// exists).
type Catalog struct {
	phys     int
	builders map[string]Builder
}

// NewCatalog returns an empty catalog whose jobs materialize at most phys
// physical elements each (the usual fidelity/wall-clock trade; see
// bench.Options.PhysBudget). phys <= 0 defaults to 1<<16.
func NewCatalog(phys int) *Catalog {
	if phys <= 0 {
		phys = 1 << 16
	}
	return &Catalog{phys: phys, builders: make(map[string]Builder)}
}

// PhysBudget returns the per-job physical element cap.
func (c *Catalog) PhysBudget() int { return c.phys }

// Register adds a kind. Registering an existing kind replaces it.
func (c *Catalog) Register(kind string, b Builder) { c.builders[kind] = b }

// Kinds lists the registered kinds, sorted.
func (c *Catalog) Kinds() []string {
	ks := make([]string, 0, len(c.builders))
	for k := range c.builders {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Build constructs the job for one submission, validating the kind and
// every parameter key first.
func (c *Catalog) Build(kind, name string, p Params) (core.Runnable, error) {
	b, ok := c.builders[kind]
	if !ok {
		return nil, fmt.Errorf("serve: unknown job kind %q (have %v)", kind, c.Kinds())
	}
	// The smallest unaccepted key, so the rejection reason — which lands in
	// the replay-diffed report — never depends on map iteration order.
	var bad string
	rejected := false
	for k := range p {
		if !slices.Contains(b.Keys, k) && (!rejected || k < bad) {
			bad, rejected = k, true
		}
	}
	if rejected {
		return nil, fmt.Errorf("serve: kind %q does not accept parameter %q (accepts %v)", kind, bad, b.Keys)
	}
	return b.Build(name, p)
}

// The bounds DefaultCatalog puts on the work one submission plans. Job
// construction runs on the engine goroutine, so a size that builds slowly,
// or allocates per chunk without limit, would stall or kill the whole
// daemon instead of rejecting the one submission.
const (
	maxData    = 1 << 40 // any virtual dataset size: paper scale is 1 TB
	maxChunks  = 1 << 16 // one job's chunk list: 1 TiB at every default chunk size
	maxDict    = 1 << 16 // wo words: the paper's 43 000, whose MPH builds in ~30 ms
	maxCenters = 1 << 10 // kmc k: a map step costs points × centers host time
)

// The chunk sizes the catalog cuts jobs at, each app's default: virtual
// bytes for wo, points for kmc, elements for sio (unless chunkcap is set).
const (
	woChunk  = 32 << 20
	kmcChunk = 8 << 20
	sioChunk = 16 << 20
)

// args reads one submission's parameters in order and keeps the first
// rejection: an unchecked non-positive or absurd size would panic or
// exhaust the host on the engine goroutine.
type args struct {
	p   Params
	err error
}

// ranged reads key with a default, rejecting values outside lo..hi.
func (a *args) ranged(key string, def, lo, hi int64) int64 {
	v := a.p.get(key, def)
	if a.err == nil && (v < lo || v > hi) {
		a.err = fmt.Errorf("serve: parameter %q = %d outside %d..%d", key, v, lo, hi)
	}
	return v
}

// chunked rejects size elements cut into chunks of at most chunk elements
// when that plans more than maxChunks chunks; key names the parameter to
// blame.
func (a *args) chunked(key string, size, chunk int64) {
	if a.err != nil {
		return
	}
	if n := (size-1)/chunk + 1; n > maxChunks {
		a.err = fmt.Errorf("serve: parameter %q: %d in chunks of %d plans %d chunks, over the cap of %d", key, size, chunk, n, maxChunks)
	}
}

// DefaultCatalog serves the three streaming benchmarks that make sense as
// ad-hoc queries: word-occurrence counts, one k-means iteration, and the
// sparse-integer scan. (MM and LR are excluded: their inputs are dense
// matrices a submission could not meaningfully parameterize by size alone.)
func DefaultCatalog(phys int) *Catalog {
	c := NewCatalog(phys)
	c.Register("wo", Builder{ // word-occurrence count over a seeded corpus
		Keys: []string{"bytes", "gpus", "seed", "dict"},
		Build: func(name string, p Params) (core.Runnable, error) {
			a := args{p: p}
			bytes, gpus, dict := a.ranged("bytes", 4<<20, 1, maxData), a.ranged("gpus", 2, 1, 4096), a.ranged("dict", 2048, 1, maxDict)
			a.chunked("bytes", bytes, woChunk)
			if a.err != nil {
				return nil, a.err
			}
			b, err := wo.BuildJob(wo.Params{
				Bytes:    bytes,
				GPUs:     int(gpus),
				Seed:     uint64(p.get("seed", 1)),
				PhysMax:  c.phys,
				ChunkCap: woChunk,
				DictSize: int(dict),
			})
			if err != nil {
				return nil, err
			}
			b.Job.Config.Name = name
			return &core.Scheduled[uint32]{Job: b.Job}, nil
		},
	})
	c.Register("kmc", Builder{ // one k-means clustering iteration over seeded points
		Keys: []string{"points", "gpus", "seed", "centers"},
		Build: func(name string, p Params) (core.Runnable, error) {
			a := args{p: p}
			points, gpus, centers := a.ranged("points", 4<<20, 1, maxData), a.ranged("gpus", 2, 1, 4096), a.ranged("centers", 0, 0, maxCenters) // 0 = default
			a.chunked("points", points, kmcChunk)
			if a.err != nil {
				return nil, a.err
			}
			b := kmc.NewJob(kmc.Params{
				Points:   points,
				GPUs:     int(gpus),
				Seed:     uint64(p.get("seed", 1)),
				Centers:  int(centers),
				PhysMax:  c.phys,
				ChunkCap: kmcChunk,
			})
			b.Job.Config.Name = name
			return &core.Scheduled[float64]{Job: b.Job}, nil
		},
	})
	c.Register("sio", Builder{ // sparse-integer occurrence scan
		Keys: []string{"elements", "gpus", "seed", "chunkcap"},
		Build: func(name string, p Params) (core.Runnable, error) {
			a := args{p: p}
			elements, gpus, chunkcap := a.ranged("elements", 8<<20, 1, maxData), a.ranged("gpus", 4, 1, 4096), a.ranged("chunkcap", 0, 0, maxData) // 0 = default
			if chunkcap == 0 {
				a.chunked("elements", elements, sioChunk)
			} else {
				a.chunked("chunkcap", elements, chunkcap) // the submitter's chunk size is to blame
			}
			if a.err != nil {
				return nil, a.err
			}
			job, _ := sio.NewJob(sio.Params{
				Elements: elements,
				GPUs:     int(gpus),
				Seed:     uint64(p.get("seed", 1)),
				PhysMax:  c.phys,
				ChunkCap: chunkcap,
			})
			job.Config.Name = name
			return &core.Scheduled[uint32]{Job: job}, nil
		},
	})
	return c
}
