package bench

import (
	"fmt"
	"io"

	"repro/internal/des"
)

// Table1 renders the dataset-size matrix (Table 1).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — dataset sizes")
	fmt.Fprintln(w, "                      MM              SIO         WO           KMC         LR")
	fmt.Fprintln(w, "elem size             --              4 B         1 B          16 B        8 B")
	fmt.Fprintln(w, "strong set      1024..16384 sq.   1,8,32,128M  1,16,64,512M  1,8,32,512M  1,16,64,512M")
	fmt.Fprintln(w, "weak set (/GPU)       --           1..32M      1..256M       1..32M       1..64M")
}

// SpeedupRow is one column of Tables 2 and 3.
type SpeedupRow struct {
	Bench     string
	Paper1GPU float64 // the paper's reported 1-GPU speedup
	Paper4GPU float64
	Speedup1  float64 // measured: baseline wall / GPMR wall
	Speedup4  float64
	Baseline  des.Time
	GPMR1GPU  des.Time
	GPMR4GPU  des.Time
}

// speedups fills Table 2 or 3 from the app table's column for it: for each
// app in the table, the baseline's wall time against GPMR's on one and on
// four GPUs.
func speedups(o Options, column func(app) versus) ([]SpeedupRow, error) {
	o = o.withDefaults()
	var rows []SpeedupRow
	for _, name := range paperColumns {
		a, _ := appNamed(name)
		vs := column(a)
		if vs.wall == nil {
			continue
		}
		base, err := vs.wall(vs.size, o)
		if err != nil {
			return nil, err
		}
		g1, _, err := Run(name, vs.size, 1, o)
		if err != nil {
			return nil, err
		}
		g4, _, err := Run(name, vs.size, 4, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SpeedupRow{
			Bench: name, Paper1GPU: vs.paper[0], Paper4GPU: vs.paper[1],
			Speedup1: float64(base) / float64(g1), Speedup4: float64(base) / float64(g4),
			Baseline: base, GPMR1GPU: g1, GPMR4GPU: g4,
		})
	}
	return rows, nil
}

// Table2 regenerates the GPMR-vs-Phoenix speedups.
func Table2(o Options) ([]SpeedupRow, error) {
	return speedups(o, func(a app) versus { return a.phoenix })
}

// Table3 regenerates the GPMR-vs-Mars speedups.
func Table3(o Options) ([]SpeedupRow, error) {
	return speedups(o, func(a app) versus { return a.mars })
}

// RenderSpeedups writes a Table 2/3-style comparison with the paper's
// numbers alongside.
func RenderSpeedups(w io.Writer, title string, rows []SpeedupRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-6s %12s %12s %12s %12s %14s\n", "bench", "1-GPU", "(paper)", "4-GPU", "(paper)", "baseline wall")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %12.2f %12.2f %12.2f %12.2f %14v\n",
			r.Bench, r.Speedup1, r.Paper1GPU, r.Speedup4, r.Paper4GPU, r.Baseline)
	}
}

// WeakPoint is one weak-scaling measurement.
type WeakPoint struct {
	GPUs       int
	Total      int64
	Wall       des.Time
	Efficiency float64 // t(1) / t(n) with per-GPU work fixed
}

// Weak runs the weak-scaling experiment the paper describes (second
// dataset sets: elements per GPU held constant).
func Weak(benchName string, o Options) ([]WeakPoint, error) {
	o = o.withDefaults()
	a, _ := appNamed(benchName)
	if a.weak == 0 {
		return nil, fmt.Errorf("bench: no weak-scaling set for %q", benchName)
	}
	var pts []WeakPoint
	var base des.Time
	for _, g := range o.GPUCounts {
		total := a.weak * int64(g)
		wall, _, err := Run(benchName, total, g, o)
		if err != nil {
			return nil, err
		}
		if g == o.GPUCounts[0] {
			base = wall
		}
		pts = append(pts, WeakPoint{GPUs: g, Total: total, Wall: wall, Efficiency: float64(base) / float64(wall)})
	}
	return pts, nil
}

// RenderWeak writes the weak-scaling table.
func RenderWeak(w io.Writer, benchName string, pts []WeakPoint) {
	a, _ := appNamed(benchName)
	fmt.Fprintf(w, "Weak scaling — %s (%d per-GPU elements/bytes)\n", benchName, a.weak)
	fmt.Fprintf(w, "%6s %14s %14s %12s\n", "GPUs", "total", "wall", "efficiency")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d %14d %14v %12.3f\n", p.GPUs, p.Total, p.Wall, p.Efficiency)
	}
}
