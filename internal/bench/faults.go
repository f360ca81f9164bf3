package bench

import (
	"fmt"
	"io"

	"repro/internal/apps/sio"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/keyval"
)

// FaultGPUs is the cluster shape for the fault scenarios: eight ranks
// packed four per node, the paper's testbed shape.
const FaultGPUs = 8

// FaultRow reports one fault scenario on the SIO workload.
type FaultRow struct {
	Scenario string
	Wall     des.Time
	// MapDone is the global map-phase completion (latest rank). For the
	// failstop scenario it isolates the re-execution cost. Note the
	// accounting caveat: in resilient runs (failstop, straggler+spec) a
	// rank's MapDone includes waiting for the all-chunks-delivered
	// declaration, so it is not comparable against non-resilient rows.
	MapDone   des.Time
	WireBytes int64

	// RecoveryStats is the recovery cost (lost chunks re-executed by
	// survivors, their input re-fetch traffic, the failed rank's
	// partition-handoff relay traffic) and the speculation outcome.
	core.RecoveryStats

	// OutputOK reports that the scenario's gathered output is
	// byte-identical to the failure-free baseline.
	OutputOK bool
}

// faultJob builds the common SIO job: 32 virtual-MB-scale chunks over
// eight GPUs with gathered output so scenarios are comparable byte for
// byte.
func faultJob(o Options) *core.Job[uint32] {
	job := sioJob(sio.Params{
		Elements: 32 << 20,
		GPUs:     FaultGPUs,
		ChunkCap: 1 << 20, // many small chunks: failures always strike mid-map
	}, o)
	job.Config.GatherOutput = true
	return job
}

// Faults runs the fault-injection scenarios the DESIGN.md fault-tolerance
// section argues:
//
//   - baseline: the failure-free run every scenario's output must match.
//   - failstop: rank 2's GPU dies right after its third map chunk; the
//     survivors re-execute its lost chunks and inherit its partition.
//   - straggler: rank 5 derates 8x after its first chunk; no backups.
//   - straggler+spec: same derating with Config.Speculate, so idle ranks
//     re-execute the straggler's in-flight chunks and it abandons copies
//     that lost — the makespan win speculation buys.
//
// Everything runs in the deterministic simulated-time domain: the same
// options give bit-identical rows, including the recovery traffic.
func Faults(o Options) ([]FaultRow, error) {
	o = o.withDefaults()
	scenarios := []struct {
		name      string
		plan      *fault.Plan
		speculate bool
	}{
		{"baseline", nil, false},
		// The fail-stop strikes after rank 2's third chunk (of four): late
		// enough that its host memory holds shuffle pairs to hand off,
		// early enough that lost chunks remain to re-execute.
		{"failstop", &fault.Plan{Events: []fault.Event{fault.FailAfterChunks(2, 3)}}, false},
		{"straggler", &fault.Plan{Events: []fault.Event{fault.SlowdownAfterChunks(5, 1, 8)}}, false},
		{"straggler+spec", &fault.Plan{Events: []fault.Event{fault.SlowdownAfterChunks(5, 1, 8)}}, true},
	}
	var rows []FaultRow
	var base *core.Result[uint32] // the failure-free run: the first scenario
	defer o.Obs.SetPrefix("")
	for _, sc := range scenarios {
		job := faultJob(o)
		job.Config.Faults = sc.plan
		job.Config.Speculate = sc.speculate
		o.Obs.SetPrefix(sc.name + "/") // one recorder timeline per scenario
		res, err := runExclusive(o, job)
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = res
		}
		var mapDone des.Time
		for _, r := range res.Trace.Ranks {
			mapDone = max(mapDone, r.MapDone)
		}
		rows = append(rows, FaultRow{
			Scenario:      sc.name,
			Wall:          res.Trace.Wall,
			MapDone:       mapDone,
			WireBytes:     res.Trace.WireBytes,
			RecoveryStats: res.Trace.Recovery(),
			OutputOK:      keyval.Equal(&res.Output, &base.Output),
		})
	}
	return rows, nil
}

// RenderFaults writes the scenario comparison table.
func RenderFaults(w io.Writer, rows []FaultRow) {
	fmt.Fprintf(w, "Fault injection — SIO, %d GPUs (4 per node), recovery and speculation\n", FaultGPUs)
	fmt.Fprintf(w, "%-15s %12s %12s %9s %6s %9s %9s %6s %5s %7s %7s %7s\n",
		"scenario", "makespan", "map done", "wire MB", "reexec", "refetchMB", "relay MB", "spec", "won", "wasted", "skipped", "output")
	for _, r := range rows {
		ok := "IDENTICAL"
		if !r.OutputOK {
			ok = "DIVERGED"
		}
		fmt.Fprintf(w, "%-15s %12v %12v %9.1f %6d %9.1f %9.1f %6d %5d %7d %7d %7s\n",
			r.Scenario, r.Wall, r.MapDone, float64(r.WireBytes)/1e6,
			r.ChunksRecovered, float64(r.RecoveredBytes)/1e6, float64(r.RelayBytes)/1e6,
			r.SpecLaunched, r.SpecWon, r.ChunksWasted, r.ChunksSkipped, ok)
	}
}
