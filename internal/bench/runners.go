// Package bench regenerates every table and figure of the paper's
// evaluation (Section 6): Figure 2's runtime breakdowns, Figure 3's
// parallel-efficiency curves, Table 1's dataset matrix, Table 2's
// GPMR-vs-Phoenix speedups, Table 3's GPMR-vs-Mars speedups, and Table 4's
// lines-of-code comparison — plus the weak-scaling runs the paper mentions
// and the ablations it argues qualitatively (Accumulation on/off, SIO's
// rejected Combine/Partial-Reduce, the WO partitioner crossover, and the
// GPUDirect future-work wish).
//
// All results come from the same simulated-time domain; see DESIGN.md for
// the calibration argument and EXPERIMENTS.md for paper-vs-measured.
package bench

import (
	"repro/internal/obs"
	"repro/internal/serve"
)

// Options tunes harness fidelity against host wall-clock time.
type Options struct {
	// PhysBudget caps materialized elements per run. Larger is more
	// faithful functionally but slower; costs are unaffected (virtual
	// counts stay at paper scale). Default 1<<16.
	PhysBudget int
	// GPUCounts for scaling curves. Default {1, 4, 8, 16, 32, 64}, the
	// x-axis of Figure 3.
	GPUCounts []int
	// Seed for workload generation.
	Seed uint64
	// Workers selects the kernel-execution backend for every experiment's
	// jobs (see core.Config.Workers): 0 = serial, n >= 1 = pool(n),
	// negative = pool(GOMAXPROCS). Results are byte-identical across
	// backends; only harness wall-clock changes.
	Workers int
	// Obs, when set, records every run's flight-recorder trace (see
	// internal/obs). Recording does not perturb results: all rendered
	// output is byte-identical with and without it.
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.PhysBudget <= 0 {
		o.PhysBudget = 1 << 16
	}
	if len(o.GPUCounts) == 0 {
		o.GPUCounts = []int{1, 4, 8, 16, 32, 64}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// replayCell replays one cell of a scheduled experiment (online, slo,
// fleet) — a trace header plus arrival events — through serve's offline
// path on the harness's kernel backend and flight recorder. Every cell runs four-GPU nodes at the harness's physical
// budget. prefix keeps the cell's recorder streams distinct from every
// other cell's in one trace file; it is cleared again on return.
func (o Options) replayCell(prefix string, h serve.Header, evs []serve.Event) (*serve.Report, error) {
	h.Version, h.GPUsPerNode, h.PhysBudget = serve.TraceVersion, 4, o.PhysBudget
	o.Obs.SetPrefix(prefix)
	defer o.Obs.SetPrefix("")
	return serve.Replay(&serve.Trace{Header: h, Events: evs},
		serve.ReplayOptions{Workers: o.Workers, Obs: o.Obs})
}
