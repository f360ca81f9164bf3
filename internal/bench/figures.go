package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/des"
)

// EffPoint is one point on a Figure 3 curve.
type EffPoint struct {
	GPUs       int
	Wall       des.Time
	Speedup    float64 // vs 1 GPU on the same input
	Efficiency float64 // Speedup / GPUs, the paper's definition
}

// Fig3Series is one input-size curve.
type Fig3Series struct {
	Size   int64
	Label  string
	Points []EffPoint
}

// Fig3Result holds one benchmark's efficiency curves.
type Fig3Result struct {
	Bench  string
	Series []Fig3Series
}

// Fig3 regenerates the parallel-efficiency curves of Figure 3 for one
// benchmark.
func Fig3(benchName string, o Options) (*Fig3Result, error) {
	o = o.withDefaults()
	a, ok := appNamed(benchName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", benchName)
	}
	res := &Fig3Result{Bench: benchName}
	for _, size := range a.fig3 {
		s := Fig3Series{Size: size, Label: a.label(size)}
		var base des.Time
		for _, g := range o.GPUCounts {
			wall, _, err := Run(benchName, size, g, o)
			if err != nil {
				return nil, err
			}
			if g == o.GPUCounts[0] {
				base = wall * des.Time(o.GPUCounts[0])
			}
			sp := float64(base) / float64(wall)
			s.Points = append(s.Points, EffPoint{
				GPUs:       g,
				Wall:       wall,
				Speedup:    sp,
				Efficiency: sp / float64(g),
			})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Render writes the curves as an aligned text table.
func (r *Fig3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 3 — %s parallel efficiency (Efficiency = Speedup/#GPUs)\n", strings.ToUpper(r.Bench))
	fmt.Fprintf(w, "%-18s", "input")
	for _, p := range r.Series[0].Points {
		fmt.Fprintf(w, "%8dG", p.GPUs)
	}
	fmt.Fprintln(w)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-18s", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(w, "%9.3f", p.Efficiency)
		}
		fmt.Fprintln(w)
	}
}

// Fig2GPUCounts are the cluster sizes shown in Figure 2.
var Fig2GPUCounts = []int{1, 8, 64}

// Fig2Row is one stacked bar of Figure 2.
type Fig2Row struct {
	Bench     string
	GPUs      int
	Breakdown core.Breakdown
	Wall      des.Time
}

// Fig2 regenerates the runtime-percentage breakdowns of Figure 2.
func Fig2(o Options) ([]Fig2Row, error) {
	o = o.withDefaults()
	var rows []Fig2Row
	for _, a := range apps {
		for _, g := range Fig2GPUCounts {
			wall, tr, err := Run(a.name, a.fig3[len(a.fig3)-1], g, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig2Row{Bench: a.name, GPUs: g, Breakdown: tr.Breakdown(), Wall: wall})
		}
	}
	return rows, nil
}

// RenderFig2 writes the breakdown table.
func RenderFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintln(w, "Figure 2 — runtime breakdown (% of wall), largest datasets")
	fmt.Fprintf(w, "%-6s %5s %8s %8s %8s %8s %10s %12s\n",
		"bench", "GPUs", "Map", "Bin", "Sort", "Reduce", "Internal", "wall")
	for _, r := range rows {
		b := r.Breakdown
		fmt.Fprintf(w, "%-6s %5d %7.1f%% %7.1f%% %7.1f%% %7.1f%% %9.1f%% %12v\n",
			r.Bench, r.GPUs, b.Map*100, b.CompleteBinning*100, b.Sort*100, b.Reduce*100, b.Internal*100, r.Wall)
	}
}
