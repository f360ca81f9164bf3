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
	summary := flag.Bool("summary", false, "print the flight recording's utilization and critical-path summary (implies recording)")
	explain := flag.Bool("explain", false, "print the job's phase breakdown and bottleneck attribution (implies recording)")
	flag.Parse()

	opts := bench.Options{PhysBudget: *phys, Seed: *seed}
	if *tracePath != "" || *summary || *explain {
		opts.Obs = obs.New()
	}
	wall, tr, err := bench.Run(*benchName, *size, *gpus, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpmrsim: %v\n", err)
		os.Exit(1)
	}
	b := tr.Breakdown()
	fmt.Printf("%s: size %d on %d GPUs\n", *benchName, *size, *gpus)
	fmt.Printf("wall %v\n", wall)
	fmt.Printf("map %.1f%%  complete-binning %.1f%%  sort %.1f%%  reduce %.1f%%  internal %.1f%%\n",
		b.Map*100, b.CompleteBinning*100, b.Sort*100, b.Reduce*100, b.Internal*100)
	fmt.Printf("wire %.2f MB, intra-node %.2f MB\n", float64(tr.WireBytes)/1e6, float64(tr.LocalBytes)/1e6)
	if *ranks {
		fmt.Printf("%5s %12s %12s %12s %12s %8s %7s %9s\n",
			"rank", "mapDone", "shuffleDone", "sortDone", "reduceDone", "chunks", "stolen", "outOfCore")
		for r, rt := range tr.Ranks {
			fmt.Printf("%5d %12v %12v %12v %12v %8d %7d %9v\n",
				r, rt.MapDone, rt.ShuffleDone, rt.SortDone, rt.ReduceDone,
				rt.ChunksMapped, rt.ChunksStolen, rt.OutOfCore)
		}
	}
	if *summary {
		fmt.Print(obs.Summarize(opts.Obs.Canonical()).String())
	}
	which := ""
	if *explain {
		which = "all"
	}
	if err := opts.Obs.Finish(os.Stdout, "gpmrsim", which, *tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "gpmrsim: %v\n", err)
		os.Exit(1)
	}
}
