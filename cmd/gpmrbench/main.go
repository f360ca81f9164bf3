// Command gpmrbench regenerates the paper's evaluation — every table and
// figure of Section 6 — and the experiments this reproduction adds on top.
// The registry lives in internal/bench; `gpmrbench -list` prints every
// experiment with a one-line description.
//
// Usage:
//
//	gpmrbench -list                     # the registry, with descriptions
//	gpmrbench -exp all                  # everything (default)
//	gpmrbench -exp fig3 -bench sio      # one figure, one benchmark
//	gpmrbench -exp table2 -phys 1048576 # higher functional fidelity
//
// Larger -phys materializes more physical data per run (slower, more
// faithful functionally); simulated costs always use paper-scale sizes.
// Every run simulates on one DES event loop with every kernel's
// functional closure inline on its simulated GPU process, so every number
// printed comes from the one engine schedule.
//
// -trace records every run on the virtual-time flight recorder and writes
// the recording as Chrome trace-event JSON — open it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Recording never changes
// results: output with -trace is byte-identical to output without.
// -cpuprofile / -memprofile write host pprof profiles of the harness.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

// check exits on a failed step of the run.
func check(err error) {
	if err != nil {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "gpmrbench: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run, or \"all\" (see -list)")
	list := flag.Bool("list", false, "print the experiment registry with descriptions and exit")
	benchName := flag.String("bench", "", "benchmark for fig3/weak (mm|sio|wo|kmc|lr; empty = all)")
	phys := flag.Int("phys", 1<<16, "physical element budget per run")
	seed := flag.Uint64("seed", 1, "workload seed")
	tracePath := flag.String("trace", "", "write the runs' flight recording as Chrome trace-event JSON (load in Perfetto)")
	explain := flag.String("explain", "", "print phase breakdowns after the runs: a job name, or \"all\" (implies recording)")
	cpuProf := flag.String("cpuprofile", "", "write a host CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a host heap profile to this file")
	flag.Parse()

	o := bench.Options{PhysBudget: *phys, Seed: *seed}
	if *tracePath != "" || *explain != "" {
		o.Obs = obs.New()
	}
	out := os.Stdout

	if *list {
		fmt.Fprintf(out, "%-10s %s\n", "all", "every experiment below, in order")
		for _, e := range bench.Experiments {
			fmt.Fprintf(out, "%-10s %s\n", e.Name, e.Desc)
		}
		return
	}

	// Validate -exp against the registry: a typo must fail loudly, not
	// match nothing and exit clean.
	known := *exp == "all"
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
		known = known || e.Name == *exp
	}
	if !known {
		fmt.Fprintf(os.Stderr, "gpmrbench: unknown experiment %q; valid: all %s\n",
			*exp, strings.Join(names, " "))
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(f))
	}
	// A failed experiment does not stop the others; the failures are
	// reported, and the run exits 1, after the recording is written.
	var failed error
	for _, e := range bench.Experiments {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		run := e.Run
		if *benchName != "" && e.PerApp != nil {
			run = func(w io.Writer, o bench.Options) error { return e.PerApp(w, *benchName, o) }
		}
		if err := run(out, o); err != nil {
			failed = errors.Join(failed, fmt.Errorf("%s: %w", e.Name, err))
		}
		fmt.Fprintln(out)
	}
	pprof.StopCPUProfile()

	if *memProf != "" {
		f, err := os.Create(*memProf)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
	check(o.Obs.Finish(out, *explain, *tracePath))
	if *tracePath != "" {
		fmt.Fprintf(os.Stderr, "gpmrbench: flight recording (%d events) written to %s\n", o.Obs.Len(), *tracePath)
	}
	check(failed)
}
