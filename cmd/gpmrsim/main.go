// Command gpmrsim runs a single GPMR job on the simulated cluster and
// prints its full timing story: wall time, the Figure-2-style stage
// breakdown, per-rank traces, and data-movement totals. It is the tool for
// exploring one configuration in depth (the per-job analogue of
// gpmrbench's sweeps).
//
// Usage:
//
//	gpmrsim -bench sio -size $((32<<20)) -gpus 8
//	gpmrsim -bench mm -size 4096 -gpus 16 -ranks
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	benchName := flag.String("bench", "sio", "benchmark: mm|sio|wo|kmc|lr")
	size := flag.Int64("size", 32<<20, "virtual input size (MM: matrix edge; WO: bytes; others: elements)")
	gpus := flag.Int("gpus", 4, "GPU count")
	phys := flag.Int("phys", 1<<16, "physical element budget")
	seed := flag.Uint64("seed", 1, "workload seed")
	ranks := flag.Bool("ranks", false, "print per-rank traces")
	tracePath := flag.String("trace", "", "write the job's flight recording as Chrome trace-event JSON (load in Perfetto)")
	explain := flag.Bool("explain", false, "print the job's phase breakdown and bottleneck attribution (implies recording)")
	flag.Parse()
	o := bench.Options{PhysBudget: *phys, Seed: *seed}
	if *tracePath != "" || *explain {
		o.Obs = obs.New()
	}
	if err := bench.Sim(os.Stdout, *benchName, *size, *gpus, *ranks, *explain, *tracePath, o); err != nil {
		fmt.Fprintf(os.Stderr, "gpmrsim: %v\n", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		fmt.Fprintf(os.Stderr, "gpmrsim: flight recording (%d events) written to %s\n", o.Obs.Len(), *tracePath)
	}
}
