package bench

import (
	"fmt"
	"io"
)

// Experiment is one entry of the evaluation registry: what gpmrbench
// -list prints and -exp selects.
type Experiment struct {
	Name string
	Desc string
	// Run regenerates the experiment and writes its report to w.
	Run func(w io.Writer, o Options) error
	// PerApp is set on the experiments that write one report per
	// benchmark (gpmrbench -bench narrows those to one): it writes the
	// named benchmark's report, and Run is PerApp over Benchmarks.
	PerApp func(w io.Writer, benchName string, o Options) error
}

// Experiments is the registry, in the order "all" runs it.
var Experiments = []Experiment{
	{Name: "table1", Desc: "the dataset matrix (virtual sizes, chunk counts)",
		Run: func(w io.Writer, _ Options) error { Table1(w); return nil }},
	perApp("fig3", "parallel-efficiency curves per benchmark (1..64 GPUs)",
		func(w io.Writer, benchName string, o Options) error {
			res, err := Fig3(benchName, o)
			if err != nil {
				return err
			}
			res.Render(w)
			fmt.Fprintln(w)
			return nil
		}),
	{Name: "fig2", Desc: "runtime breakdowns by pipeline stage", Run: rendered(Fig2, RenderFig2)},
	{Name: "table2", Desc: "GPMR speedup over Phoenix (4-core CPU)",
		Run: rendered(Table2, titled("Table 2 — GPMR speedup over Phoenix (4-core CPU)"))},
	{Name: "table3", Desc: "GPMR speedup over Mars (single GPU)",
		Run: rendered(Table3, titled("Table 3 — GPMR speedup over Mars (single GPU)"))},
	{Name: "table4", Desc: "lines-of-code comparison",
		Run: rendered(func(Options) ([]LoCRow, error) {
			root, err := findRepoRoot()
			if err != nil {
				return nil, err
			}
			return Table4(root)
		}, RenderTable4)},
	perApp("weak", "weak-scaling runs (fixed size per GPU)",
		func(w io.Writer, benchName string, o Options) error {
			if a, ok := appNamed(benchName); ok && a.weak == 0 {
				return nil // no weak set for MM in Table 1
			}
			pts, err := Weak(benchName, o)
			if err != nil {
				return err
			}
			RenderWeak(w, benchName, pts)
			fmt.Fprintln(w)
			return nil
		}),
	{Name: "ablation", Desc: "substage ablations the paper argues in prose", Run: rendered(Ablation, RenderAblation)},
	{Name: "imbalance", Desc: "skewed chunk placement vs steal policies", Run: rendered(Imbalance, RenderImbalance)},
	{Name: "faults", Desc: "GPU fail-stop recovery and straggler speculation", Run: rendered(Faults, RenderFaults)},
	{Name: "multijob", Desc: "multi-tenant policies over one shared batch stream",
		Run: func(w io.Writer, o Options) error {
			rows, traces, err := Multijob(o)
			if err != nil {
				return err
			}
			RenderMultijob(w, rows, traces)
			return nil
		}},
	{Name: "online", Desc: "open-system offered-load sweep: latency vs reject rate", Run: rendered(Online, RenderOnline)},
	{Name: "slo", Desc: "SLO scheduling sweep: per-class deadline attainment and shed rate", Run: rendered(SLO, RenderSLO)},
	{Name: "fleet", Desc: "consistent-hash fleet routing: plain vs bounded-load", Run: rendered(Fleet, RenderFleet)},
}

// rendered pairs an experiment's measurement with its renderer.
func rendered[R any](measure func(Options) (R, error), render func(io.Writer, R)) func(io.Writer, Options) error {
	return func(w io.Writer, o Options) error {
		rows, err := measure(o)
		if err != nil {
			return err
		}
		render(w, rows)
		return nil
	}
}

func titled(title string) func(io.Writer, []SpeedupRow) {
	return func(w io.Writer, rows []SpeedupRow) { RenderSpeedups(w, title, rows) }
}

func perApp(name, desc string, one func(io.Writer, string, Options) error) Experiment {
	return Experiment{Name: name, Desc: desc, PerApp: one, Run: func(w io.Writer, o Options) error {
		for _, b := range Benchmarks {
			if err := one(w, b, o); err != nil {
				return err
			}
		}
		return nil
	}}
}
