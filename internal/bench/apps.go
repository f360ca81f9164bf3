package bench

import (
	"fmt"
	"io"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/mm"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/gpu"
	"repro/internal/mars"
	"repro/internal/obs"
	"repro/internal/phoenix"
	"repro/internal/workload"
)

// app is one row of the app table: everything the harness knows about a
// benchmark by name. Size units: MM matrix edge; WO corpus bytes; others
// element counts.
type app struct {
	name  string
	label func(size int64) string // a Figure 3 curve's legend entry
	// fig3 is Table 1's strong-scaling set, largest last (Figure 2 uses
	// the largest); weak is the per-GPU size of the weak-scaling runs, a
	// mid-range pick from Table 1's second set (0 = none).
	fig3 []int64
	weak int64
	// run runs the GPMR job alone on its own cluster.
	run func(size int64, gpus int, o Options) (*core.Trace, error)
	// phoenix is the app's Table 2 column: the second-biggest strong size,
	// except MM's small set (Phoenix needed ~20 s for 1024²). mars is its
	// Table 3 column: the largest problem meeting Mars's in-core
	// requirements; zero for the apps Mars cannot run, which Tables 3 and
	// 4 leave out.
	phoenix, mars versus
	paper4        [3]int // Table 4's published source lines: Phoenix, Mars, GPMR
}

// versus is one app's column of a speedup table: the input size, the
// paper's 1-GPU and 4-GPU speedups, and the baseline's wall time on that
// input.
type versus struct {
	size  int64
	paper [2]float64
	wall  func(size int64, o Options) (des.Time, error)
}

// apps is the app table, in the paper's order.
var apps = []app{{
	name: "mm", label: func(size int64) string { return fmt.Sprintf("%d x %d", size, size) },
	fig3: []int64{2048, 4096, 16384},
	run:  runMM,
	phoenix: versus{1024, [2]float64{162.712, 559.209}, func(n int64, o Options) (des.Time, error) {
		return phoenixWall(phoenix.MM(n, 32, o.Seed))
	}},
	mars: versus{4096, [2]float64{2.695, 10.760}, func(n int64, o Options) (des.Time, error) {
		return marsWall(mars.MM(n, 32, o.Seed))
	}},
	paper4: [3]int{317, 235, 214},
}, {
	name: "sio", label: mega("elements"),
	fig3: []int64{1 << 20, 8 << 20, 32 << 20, 128 << 20}, weak: 4 << 20,
	run: func(n int64, gpus int, o Options) (*core.Trace, error) {
		return traceOf(o, sioJob(sio.Params{Elements: n, GPUs: gpus}, o))
	},
	phoenix: versus{32 << 20, [2]float64{1.450, 2.322}, func(n int64, o Options) (des.Time, error) {
		return phoenixWall(phoenix.SIO(n, o.PhysBudget, o.Seed))
	}},
}, {
	name: "wo", label: mega("bytes"),
	fig3: []int64{1 << 20, 16 << 20, 64 << 20, 512 << 20}, weak: 32 << 20,
	run: func(n int64, gpus int, o Options) (*core.Trace, error) {
		return traceOf(o, woJob(wo.Params{Bytes: n, GPUs: gpus}, o))
	},
	phoenix: versus{64 << 20, [2]float64{11.080, 18.441}, func(n int64, o Options) (des.Time, error) {
		return phoenixWall(phoenix.WO(n, o.PhysBudget, woDict(o), o.Seed))
	}},
	mars: versus{512 << 20, [2]float64{3.098, 11.709}, func(n int64, o Options) (des.Time, error) {
		return marsWall(mars.WO(n, o.PhysBudget, woDict(o), o.Seed))
	}},
	paper4: [3]int{231, 140, 397},
}, {
	name: "kmc", label: mega("elements"),
	fig3: []int64{1 << 20, 8 << 20, 32 << 20, 512 << 20}, weak: 4 << 20,
	run: func(n int64, gpus int, o Options) (*core.Trace, error) {
		return traceOf(o, kmcJob(kmc.Params{Points: n, GPUs: gpus}, o))
	},
	phoenix: versus{32 << 20, [2]float64{2.991, 11.726}, func(n int64, o Options) (des.Time, error) {
		return phoenixWall(phoenix.KMC(n, o.PhysBudget, 32, 4, o.Seed))
	}},
	mars: versus{8 << 20, [2]float64{37.344, 129.425}, func(n int64, o Options) (des.Time, error) {
		return marsWall(mars.KMC(n, o.PhysBudget, 32, 4, o.Seed))
	}},
	paper4: [3]int{345, 152, 129},
}, {
	name: "lr", label: mega("elements"),
	fig3: []int64{1 << 20, 16 << 20, 64 << 20, 512 << 20}, weak: 8 << 20,
	run: func(n int64, gpus int, o Options) (*core.Trace, error) {
		return traceOf(o, lrJob(lr.Params{Points: n, GPUs: gpus}, o))
	},
	phoenix: versus{64 << 20, [2]float64{1.296, 4.085}, func(n int64, o Options) (des.Time, error) {
		return phoenixWall(phoenix.LR(n, o.PhysBudget, o.Seed, 2, 3, 0.5))
	}},
}}

// paperColumns is the column order of the paper's Tables 2–4 (Tables 3
// and 4 keep only the apps Mars can run).
var paperColumns = []string{"mm", "kmc", "lr", "sio", "wo"}

// Benchmarks lists the five apps in the paper's order, and Fig3Sizes
// their strong-scaling input sets; both are views of the app table.
var Benchmarks, Fig3Sizes = func() ([]string, map[string][]int64) {
	names, sizes := make([]string, len(apps)), make(map[string][]int64, len(apps))
	for i, a := range apps {
		names[i], sizes[a.name] = a.name, a.fig3
	}
	return names, sizes
}()

// appNamed looks a benchmark up in the app table.
func appNamed(name string) (app, bool) {
	for _, a := range apps {
		if a.name == name {
			return a, true
		}
	}
	return app{}, false
}

func mega(unit string) func(int64) string {
	return func(size int64) string { return fmt.Sprintf("%dM %s", size>>20, unit) }
}

// woDict keeps the MPH build fast for small physical budgets: the harness
// uses a dictionary no larger than the materialized corpus could cover.
func woDict(o Options) int {
	if o.PhysBudget < 1<<20 {
		return 4300 // 1/10th-scale dictionary for quick runs
	}
	return workload.DictionarySize
}

// The typed job builders: each fills in what the harness options decide
// (seed, physical budget, WO's dictionary) and leaves the rest of the
// app's parameters — sizes, chunking, ablation switches — to the caller.

func sioJob(p sio.Params, o Options) *core.Job[uint32] {
	p.Seed, p.PhysMax = o.Seed, o.PhysBudget
	job, _ := sio.NewJob(p)
	return job
}

func woJob(p wo.Params, o Options) *core.Job[uint32] {
	p.Seed, p.PhysMax, p.DictSize = o.Seed, o.PhysBudget, woDict(o)
	return wo.NewJob(p).Job
}

func kmcJob(p kmc.Params, o Options) *core.Job[float64] {
	p.Seed, p.PhysMax = o.Seed, o.PhysBudget
	return kmc.NewJob(p).Job
}

func lrJob(p lr.Params, o Options) *core.Job[float64] {
	p.Seed, p.PhysMax = o.Seed, o.PhysBudget
	return lr.NewJob(p).Job
}

// exclusive points a job that runs alone on its own cluster at the
// harness's flight recorder. With runExclusive it is the one seam every
// exclusive run goes through — no other line of the harness sets the
// field — which is what makes -trace and -explain reach every experiment.
func exclusive[V any](o Options, job *core.Job[V]) *core.Job[V] {
	job.Config.Obs = o.Obs
	return job
}

func runExclusive[V any](o Options, job *core.Job[V]) (*core.Result[V], error) {
	return exclusive(o, job).Run()
}

// traceOf runs one job through the seam and keeps only its trace.
func traceOf[V any](o Options, job *core.Job[V]) (*core.Trace, error) {
	res, err := runExclusive(o, job)
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// runMM runs MM's two-job pipeline and combines the two traces into one
// for reporting. The second job inherits the first's recorder
// (see mm.Built.Run).
func runMM(size int64, gpus int, o Options) (*core.Trace, error) {
	b, err := mm.New(mm.Params{Dim: size, GPUs: gpus, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	exclusive(o, b.Job1)
	_, tr1, tr2, err := b.Run()
	if err != nil {
		return nil, err
	}
	tr := &core.Trace{Name: "mm", GPUs: gpus, Wall: tr1.Wall + tr2.Wall,
		WireBytes: tr1.WireBytes + tr2.WireBytes, LocalBytes: tr1.LocalBytes + tr2.LocalBytes}
	for i := range tr1.Ranks {
		r := tr1.Ranks[i]
		r.Add(tr2.Ranks[i])
		tr.Ranks = append(tr.Ranks, r)
	}
	return tr, nil
}

// phoenixWall and marsWall time a baseline app: Phoenix on the 4-core CPU,
// Mars on one GPU with the S1070's full 4 GB. The trailing parameter
// absorbs the reference data the app constructors also return.
func phoenixWall[V any](a phoenix.App[V], _ ...any) (des.Time, error) {
	res, err := phoenix.Run(a, 0)
	if err != nil {
		return 0, err
	}
	return res.Wall, nil
}

func marsWall[V any](a mars.App[V], _ ...any) (des.Time, error) {
	pr := gpu.GT200()
	pr.MemBytes = 4 << 30
	res, err := mars.Run(a, pr)
	if err != nil {
		return 0, err
	}
	return res.Wall, nil
}

// Run executes one GPMR benchmark at the given virtual size and GPU count,
// returning the wall time and (for the two-job MM, the combined) trace.
func Run(benchName string, size int64, gpus int, o Options) (des.Time, *core.Trace, error) {
	a, ok := appNamed(benchName)
	if !ok {
		return 0, nil, fmt.Errorf("bench: unknown benchmark %q", benchName)
	}
	tr, err := a.run(size, gpus, o.withDefaults())
	if err != nil {
		return 0, nil, err
	}
	return tr.Wall, tr, nil
}

// Sim runs one benchmark job and writes gpmrsim's report to w: wall time,
// stage breakdown and data movement, then as asked the per-rank traces,
// the recording's summary, its explain breakdown and its Chrome trace.
func Sim(w io.Writer, benchName string, size int64, gpus int, ranks, summary, explain bool, tracePath string, o Options) error {
	if tracePath != "" || summary || explain {
		o.Obs = obs.New()
	}
	wall, tr, err := Run(benchName, size, gpus, o)
	if err != nil {
		return err
	}
	b := tr.Breakdown()
	fmt.Fprintf(w, "%s: size %d on %d GPUs\n", benchName, size, gpus)
	fmt.Fprintf(w, "wall %v\n", wall)
	fmt.Fprintf(w, "map %.1f%%  complete-binning %.1f%%  sort %.1f%%  reduce %.1f%%  internal %.1f%%\n",
		b.Map*100, b.CompleteBinning*100, b.Sort*100, b.Reduce*100, b.Internal*100)
	fmt.Fprintf(w, "wire %.2f MB, intra-node %.2f MB\n", float64(tr.WireBytes)/1e6, float64(tr.LocalBytes)/1e6)
	if ranks {
		fmt.Fprintf(w, "%5s %12s %12s %12s %12s %8s %7s %9s\n",
			"rank", "mapDone", "shuffleDone", "sortDone", "reduceDone", "chunks", "stolen", "outOfCore")
		for r, rt := range tr.Ranks {
			fmt.Fprintf(w, "%5d %12v %12v %12v %12v %8d %7d %9v\n",
				r, rt.MapDone, rt.ShuffleDone, rt.SortDone, rt.ReduceDone,
				rt.ChunksMapped, rt.ChunksStolen, rt.OutOfCore)
		}
	}
	if summary {
		fmt.Fprint(w, obs.Summarize(o.Obs.Canonical()).String())
	}
	which := ""
	if explain {
		which = "all"
	}
	return o.Obs.Finish(w, "gpmrsim", which, tracePath)
}
