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

// ranged reads a parameter with a default, rejecting values outside
// lo..hi. Builders use it for every size-like knob: a tenant-supplied
// value reaches job construction on the engine goroutine, where an
// unchecked non-positive size (or an absurd one) would panic or exhaust
// the host instead of rejecting the one submission.
func (p Params) ranged(key string, def, lo, hi int64) (int64, error) {
	v := p.get(key, def)
	if v < lo || v > hi {
		return 0, fmt.Errorf("serve: parameter %q = %d outside %d..%d", key, v, lo, hi)
	}
	return v, nil
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

// DefaultCatalog serves the three streaming benchmarks that make sense as
// ad-hoc queries: word-occurrence counts, one k-means iteration, and the
// sparse-integer scan. (MM and LR are excluded: their inputs are dense
// matrices a submission could not meaningfully parameterize by size alone.)
func DefaultCatalog(phys int) *Catalog {
	c := NewCatalog(phys)
	// maxData bounds any virtual dataset size: large enough for paper-scale
	// runs (1 TB), small enough that chunk lists stay addressable.
	const maxData = 1 << 40
	c.Register("wo", Builder{ // word-occurrence count over a seeded corpus
		Keys: []string{"bytes", "gpus", "seed", "dict"},
		Build: func(name string, p Params) (core.Runnable, error) {
			bytes, err := p.ranged("bytes", 4<<20, 1, maxData)
			if err != nil {
				return nil, err
			}
			gpus, err := p.ranged("gpus", 2, 1, 4096)
			if err != nil {
				return nil, err
			}
			dict, err := p.ranged("dict", 2048, 1, 1<<24)
			if err != nil {
				return nil, err
			}
			b := wo.NewJob(wo.Params{
				Bytes:    bytes,
				GPUs:     int(gpus),
				Seed:     uint64(p.get("seed", 1)),
				PhysMax:  c.phys,
				DictSize: int(dict),
			})
			b.Job.Config.Name = name
			return &core.Scheduled[uint32]{Job: b.Job}, nil
		},
	})
	c.Register("kmc", Builder{ // one k-means clustering iteration over seeded points
		Keys: []string{"points", "gpus", "seed", "centers"},
		Build: func(name string, p Params) (core.Runnable, error) {
			points, err := p.ranged("points", 4<<20, 1, maxData)
			if err != nil {
				return nil, err
			}
			gpus, err := p.ranged("gpus", 2, 1, 4096)
			if err != nil {
				return nil, err
			}
			centers, err := p.ranged("centers", 0, 0, 1<<20) // 0 = default
			if err != nil {
				return nil, err
			}
			b := kmc.NewJob(kmc.Params{
				Points:  points,
				GPUs:    int(gpus),
				Seed:    uint64(p.get("seed", 1)),
				Centers: int(centers),
				PhysMax: c.phys,
			})
			b.Job.Config.Name = name
			return &core.Scheduled[float64]{Job: b.Job}, nil
		},
	})
	c.Register("sio", Builder{ // sparse-integer occurrence scan
		Keys: []string{"elements", "gpus", "seed", "chunkcap"},
		Build: func(name string, p Params) (core.Runnable, error) {
			elements, err := p.ranged("elements", 8<<20, 1, maxData)
			if err != nil {
				return nil, err
			}
			gpus, err := p.ranged("gpus", 4, 1, 4096)
			if err != nil {
				return nil, err
			}
			chunkcap, err := p.ranged("chunkcap", 0, 0, maxData) // 0 = default
			if err != nil {
				return nil, err
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
