package bench

import (
	"fmt"
	"io"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/core"
	"repro/internal/des"
)

// AblationRow compares one pipeline variant against the paper's chosen
// configuration.
type AblationRow struct {
	Name     string
	Chosen   des.Time // the paper's configuration
	Variant  des.Time
	Slowdown float64 // Variant / Chosen (>1 means the paper chose right)
}

// runFn runs one configuration of a job.
type runFn func(o Options) (*core.Trace, error)

// jobRun adapts a typed job builder and its parameters to a runFn.
func jobRun[P, V any](build func(P, Options) *core.Job[V], p P) runFn {
	return func(o Options) (*core.Trace, error) { return traceOf(o, build(p, o)) }
}

// sioDirectJob is sioJob on GPUDirect hardware.
func sioDirectJob(p sio.Params, o Options) *core.Job[uint32] {
	job := sioJob(p, o)
	job.Config.GPUDirect = true
	return job
}

// ablations are the design-choice comparisons the paper argues in prose.
// A nil chosen shares the run of the row above.
var ablations = []struct {
	name            string
	chosen, variant runFn
}{
	// Accumulation at mid-size inputs on 8 GPUs ("dramatically worse"
	// without).
	{"wo: no accumulation",
		jobRun(woJob, wo.Params{Bytes: 64 << 20, GPUs: 8}),
		jobRun(woJob, wo.Params{Bytes: 64 << 20, GPUs: 8, NoAccumulation: true})},
	{"kmc: no accumulation",
		jobRun(kmcJob, kmc.Params{Points: 32 << 20, GPUs: 8}),
		jobRun(kmcJob, kmc.Params{Points: 32 << 20, GPUs: 8, NoAccumulation: true})},
	{"lr: no accumulation",
		jobRun(lrJob, lr.Params{Points: 64 << 20, GPUs: 8}),
		jobRun(lrJob, lr.Params{Points: 64 << 20, GPUs: 8, NoAccumulation: true})},
	// SIO's rejected substages (no speedup / slowdown).
	{"sio: partial reduce",
		jobRun(sioJob, sio.Params{Elements: 32 << 20, GPUs: 8}),
		jobRun(sioJob, sio.Params{Elements: 32 << 20, GPUs: 8, UsePartialReduce: true})},
	{"sio: combine",
		nil,
		jobRun(sioJob, sio.Params{Elements: 32 << 20, GPUs: 8, UseCombiner: true})},
	// The WO partitioner crossover: at 64 GPUs the partitioner must win.
	{"wo@64GPU: partitioner off",
		jobRun(woJob, wo.Params{Bytes: 512 << 20, GPUs: 64, ForcePartitioner: 1}),
		jobRun(woJob, wo.Params{Bytes: 512 << 20, GPUs: 64, ForcePartitioner: -1})},
	// GPUDirect: the paper's closing hardware wish, as a what-if.
	{"sio@64GPU: gpudirect",
		jobRun(sioJob, sio.Params{Elements: 128 << 20, GPUs: 64}),
		jobRun(sioDirectJob, sio.Params{Elements: 128 << 20, GPUs: 64})},
}

// Ablation regenerates the design-choice comparisons: each row runs the
// paper's configuration and one variant of it.
func Ablation(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	var rows []AblationRow
	var chosen *core.Trace
	defer o.Obs.SetPrefix("") // one recorder timeline per run
	for _, a := range ablations {
		var err error
		if a.chosen != nil {
			o.Obs.SetPrefix(a.name + "/chosen/")
			if chosen, err = a.chosen(o); err != nil {
				return nil, err
			}
		}
		o.Obs.SetPrefix(a.name + "/variant/")
		variant, err := a.variant(o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Name: a.name, Chosen: chosen.Wall, Variant: variant.Wall,
			Slowdown: float64(variant.Wall) / float64(chosen.Wall)})
	}
	return rows, nil
}

// RenderAblation writes the comparison table.
func RenderAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablations — paper's configuration vs variant")
	fmt.Fprintf(w, "%-28s %14s %14s %10s\n", "variant", "chosen", "variant", "x slower")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %14v %14v %10.2f\n", r.Name, r.Chosen, r.Variant, r.Slowdown)
	}
}
