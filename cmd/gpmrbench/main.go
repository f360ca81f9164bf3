// Command gpmrbench regenerates the paper's evaluation: every table and
// figure of Section 6, plus weak scaling, the ablations argued in prose,
// a chunk-imbalance scenario comparing steal policies, and the
// fault-injection scenarios (GPU fail-stop recovery and straggler
// speculation).
//
// Usage:
//
//	gpmrbench -exp all                  # everything (default)
//	gpmrbench -exp fig3 -bench sio      # one figure, one benchmark
//	gpmrbench -exp table2 -phys 1048576 # higher functional fidelity
//	gpmrbench -exp faults               # fault recovery & speculation
//	gpmrbench -exp multijob             # multi-tenant scheduling policies
//	gpmrbench -exp online               # open-system offered-load sweep
//	gpmrbench -exp multijob -workers 4  # kernel work on 4 host cores
//	gpmrbench -list                     # the registry, with descriptions
//
// Larger -phys materializes more physical data per run (slower, more
// faithful functionally); simulated costs always use paper-scale sizes.
//
// -workers selects the kernel-execution backend: 0 (default) runs every
// kernel's functional closure inline on its simulated GPU process, N >= 1
// dispatches closures to a pool of N real worker goroutines, and -1 uses
// one worker per host core. Results and traces are byte-identical across
// backends — the pool only cuts the harness's wall-clock by running
// map/sort/reduce work from different simulated GPUs concurrently.
//
// -shards selects the DES engine sharding of the scheduled experiments
// (multijob, online, slo, fleet): 0 (default) runs the single event loop,
// N >= 1 runs the simulation as N coordinated engine shards under
// conservative lookahead, and -1 uses one shard per simulated node plus a
// scheduler hub. All shard counts >= 1 produce byte-identical traces.
// Exclusive-job experiments always run on one engine. Host cost per mode
// is measured by the repository benchmark (sched.stream_jobs_per_s.*; see
// benchmark/README.md).
//
// -trace records every run on the virtual-time flight recorder and writes
// the recording as Chrome trace-event JSON — open it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. Recording never changes
// results: output with -trace is byte-identical to output without.
// -cpuprofile / -memprofile write host pprof profiles of the harness.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

// experiment is one named entry in the driver registry.
type experiment struct {
	name string
	desc string
	run  func() error
}

func main() {
	exp := flag.String("exp", "all", "experiment to run, or \"all\" (see -list)")
	list := flag.Bool("list", false, "print the experiment registry with descriptions and exit")
	benchName := flag.String("bench", "", "benchmark for fig3/weak (mm|sio|wo|kmc|lr; empty = all)")
	phys := flag.Int("phys", 1<<16, "physical element budget per run")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "kernel-execution workers: 0 = serial, N = pool(N), -1 = pool(all cores)")
	shards := flag.Int("shards", 0, "DES engine shards for scheduled experiments (multijob|online|slo|fleet): 0 = single engine, N = N shards, -1 = one per node")
	tracePath := flag.String("trace", "", "write the runs' flight recording as Chrome trace-event JSON (load in Perfetto)")
	explain := flag.String("explain", "", "print phase breakdowns after the runs: a job name, or \"all\" (implies recording)")
	cpuProf := flag.String("cpuprofile", "", "write a host CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a host heap profile to this file")
	flag.Parse()

	o := bench.Options{PhysBudget: *phys, Seed: *seed, Workers: *workers, Shards: *shards}
	if *tracePath != "" || *explain != "" {
		o.Obs = obs.New()
	}
	out := os.Stdout

	benches := bench.Benchmarks
	if *benchName != "" {
		benches = []string{*benchName}
	}

	experiments := []experiment{
		{"table1", "the dataset matrix (virtual sizes, chunk counts)", func() error { bench.Table1(out); return nil }},
		{"fig3", "parallel-efficiency curves per benchmark (1..64 GPUs)", func() error {
			for _, b := range benches {
				res, err := bench.Fig3(b, o)
				if err != nil {
					return err
				}
				res.Render(out)
				fmt.Fprintln(out)
			}
			return nil
		}},
		{"fig2", "runtime breakdowns by pipeline stage", func() error {
			rows, err := bench.Fig2(o)
			if err != nil {
				return err
			}
			bench.RenderFig2(out, rows)
			return nil
		}},
		{"table2", "GPMR speedup over Phoenix (4-core CPU)", func() error {
			rows, err := bench.Table2(o)
			if err != nil {
				return err
			}
			bench.RenderSpeedups(out, "Table 2 — GPMR speedup over Phoenix (4-core CPU)", rows)
			return nil
		}},
		{"table3", "GPMR speedup over Mars (single GPU)", func() error {
			rows, err := bench.Table3(o)
			if err != nil {
				return err
			}
			bench.RenderSpeedups(out, "Table 3 — GPMR speedup over Mars (single GPU)", rows)
			return nil
		}},
		{"table4", "lines-of-code comparison", func() error {
			rows, err := bench.Table4(".")
			if err != nil {
				return err
			}
			bench.RenderTable4(out, rows)
			return nil
		}},
		{"weak", "weak-scaling runs (fixed size per GPU)", func() error {
			for _, b := range benches {
				if b == "mm" {
					continue // no weak set for MM in Table 1
				}
				pts, err := bench.Weak(b, o)
				if err != nil {
					return err
				}
				bench.RenderWeak(out, b, pts)
				fmt.Fprintln(out)
			}
			return nil
		}},
		{"ablation", "substage ablations the paper argues in prose", func() error {
			rows, err := bench.Ablation(o)
			if err != nil {
				return err
			}
			bench.RenderAblation(out, rows)
			return nil
		}},
		{"imbalance", "skewed chunk placement vs steal policies", func() error {
			rows, err := bench.Imbalance(o)
			if err != nil {
				return err
			}
			bench.RenderImbalance(out, rows)
			return nil
		}},
		{"faults", "GPU fail-stop recovery and straggler speculation", func() error {
			rows, err := bench.Faults(o)
			if err != nil {
				return err
			}
			bench.RenderFaults(out, rows)
			return nil
		}},
		{"multijob", "multi-tenant policies over one shared batch stream", func() error {
			rows, traces, err := bench.Multijob(o)
			if err != nil {
				return err
			}
			bench.RenderMultijob(out, rows, traces)
			return nil
		}},
		{"online", "open-system offered-load sweep: latency vs reject rate", func() error {
			rows, err := bench.Online(o)
			if err != nil {
				return err
			}
			bench.RenderOnline(out, rows)
			return nil
		}},
		{"slo", "SLO scheduling sweep: per-class deadline attainment and shed rate", func() error {
			rows, err := bench.SLO(o)
			if err != nil {
				return err
			}
			bench.RenderSLO(out, rows)
			return nil
		}},
		{"fleet", "consistent-hash fleet routing: plain vs bounded-load", func() error {
			rows, err := bench.Fleet(o)
			if err != nil {
				return err
			}
			bench.RenderFleet(out, rows)
			return nil
		}},
	}

	names := make([]string, 0, len(experiments))
	for _, e := range experiments {
		names = append(names, e.name)
	}

	// -list prints the registry with descriptions and exits clean.
	if *list {
		fmt.Fprintf(out, "%-10s %s\n", "all", "every experiment below, in order")
		for _, e := range experiments {
			fmt.Fprintf(out, "%-10s %s\n", e.name, e.desc)
		}
		return
	}

	// `-exp help` lists the registry and exits clean (the flag usage
	// points here).
	if *exp == "help" {
		fmt.Fprintf(out, "experiments: all %s\n", strings.Join(names, " "))
		return
	}

	// Validate -exp against the registry: a typo must fail loudly, not
	// match nothing and exit clean.
	if *exp != "all" {
		known := false
		for _, e := range experiments {
			if e.name == *exp {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "gpmrbench: unknown experiment %q; valid: all %s\n",
				*exp, strings.Join(names, " "))
			os.Exit(2)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmrbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gpmrbench: %v\n", err)
			os.Exit(1)
		}
	}

	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := e.run(); err != nil {
			pprof.StopCPUProfile()
			fmt.Fprintf(os.Stderr, "gpmrbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(out)
	}

	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmrbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gpmrbench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if *explain != "" {
		evs := o.Obs.Canonical()
		for _, k := range obs.Jobs(evs) {
			if *explain != "all" && k.String() != *explain && k.Name != *explain {
				continue
			}
			fmt.Fprint(out, obs.Explain(evs, k).String())
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpmrbench: %v\n", err)
			os.Exit(1)
		}
		if err := o.Obs.WriteChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "gpmrbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gpmrbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gpmrbench: flight recording (%d events) written to %s\n", o.Obs.Len(), *tracePath)
	}
}
