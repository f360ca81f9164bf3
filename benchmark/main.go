// Command benchmark is the repository's benchmark: six workloads that
// measure what the GPMR simulator and its two daemons cost on the HOST,
// driven from outside through the built binaries' CLI and HTTP surfaces
// and the root gpmr package. Simulated statistics enter only as the
// correctness check. See README.md in this directory.
//
//	go run ./benchmark -seed 1                 # every workload, end-to-end metrics
//	go run ./benchmark -seed 1 -trace          # the traced runs: per-layer metrics
//	go run ./benchmark -workload sched_burst   # one workload
//	go run ./benchmark -json a.json            # also write the runs to a file
//	go run ./benchmark -compare a.json b.json  # hold b against a and the bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeTrace lets the boolean -trace flag also be given as
// "-trace 0" or "-trace 1", which the flag package would otherwise read
// as a flag followed by a positional argument.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload (default: all six); see -list")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 8, "length of each timed window on the reference host; counts scale with it")
	trace := fs.Bool("trace", false, "traced run: harness spans on, reduced counts, then the probe suite; prints the per-layer metrics")
	runs := fs.Int("runs", 1, "repeat each workload this many times, with seeds seed, seed+1, ...")
	jsonPath := fs.String("json", "", "write every run to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments; exit 1 on a regression")
	list := fs.Bool("list", false, "print the workloads and metrics and exit")
	quick := fs.Bool("quick", false, "tiny counts: a smoke run, its numbers mean nothing")
	child := fs.String("child", "", "internal: run as a child process (sched-stream, sched-burst, probes)")
	n := fs.Int("n", 0, "internal: job count of a sched child")
	dir := fs.String("dir", "", "internal: scratch directory of a probes child")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	switch {
	case *child != "":
		return runAsChild(*child, *seed, *n, *quick, *dir)
	case *list:
		printDefs(os.Stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *seconds > 60 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be 1..60 and -runs at least 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; see -list\n", *workload)
		return 2
	}

	e, err := prepare(names[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	sz := sizesFor(*seconds, *quick)
	var all []*result
	ok := true
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			var r *result
			if *trace {
				r = e.runTraced(name, *seed+int64(i), *seconds, *quick)
			} else {
				r = e.runWorkload(name, *seed+int64(i), *seconds, sz, nil, nil)
			}
			r.checkComplete()
			r.print(os.Stdout)
			all = append(all, r)
			ok = ok && r.Correct && r.Failed == 0
		}
	}
	e.cleanup(!ok)
	if *jsonPath != "" {
		if err := writeResults(*jsonPath, all); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if len(all) == 1 {
		fmt.Println(all[0].contractLine())
	}
	if !ok {
		return 1
	}
	return 0
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runAsChild is the benchmark binary re-executed by itself, so that the
// work has a process — CPU time and peak RSS — of its own.
func runAsChild(mode string, seed int64, n int, quick bool, dir string) int {
	var out any
	switch mode {
	case "sched-stream":
		out = runNoopJobs(seed, n, false)
	case "sched-burst":
		out = runNoopJobs(seed, n, true)
	case "probes":
		out = runProbes(quick, dir)
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown child mode %q\n", mode)
		return 2
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// sizes are the fixed operation counts of every workload. Work is a
// count, never a duration: the counts below take about `seconds` per
// timed window on the 2-core reference host at the commit that defined
// the benchmark, and scale with -seconds.
type sizes struct {
	paper  paperSizes
	stream schedSizes
	burst  schedSizes
	gpmrd  servingSizes
	reads  servingSizes
	fleet  servingSizes
}

func sizesFor(seconds int, quick bool) sizes {
	s := float64(seconds)
	scale := func(perSecond float64) int { return int(math.Round(perSecond * s)) }
	if quick {
		return sizes{
			paper:  paperSizes{passes: 1, phys: 1024, setups: 1},
			stream: schedSizes{jobs: 200, setups: 1},
			burst:  schedSizes{jobs: 100, setups: 1},
			gpmrd:  servingSizes{warmup: 5, closed: 20, openRate: 100, open: 20, setups: 1},
			reads:  servingSizes{warmup: 5, populate: 20, reads: 100, setups: 1},
			fleet:  servingSizes{warmup: 5, closed: 20, openRate: 60, open: 20, setups: 1},
		}
	}
	return sizes{
		// One pass of the 13 experiments is 10.6 s; two from 16 s up.
		paper:  paperSizes{passes: max(1, seconds/8), setups: 5},
		stream: schedSizes{jobs: scale(2600), setups: 3},
		// A burst's cost grows with the cube of its depth.
		burst: schedSizes{jobs: int(math.Round(2000 * math.Cbrt(s/8))), setups: 3},
		gpmrd: servingSizes{warmup: 100, closed: scale(290), openRate: 100, open: scale(100), setups: 3},
		reads: servingSizes{warmup: 100, populate: 900, reads: scale(380), setups: 3},
		fleet: servingSizes{warmup: 100, closed: scale(340), openRate: 100, open: scale(100), setups: 3},
	}
}

// runWorkload runs one workload once and returns its end-to-end metrics.
// A traced run passes its tracer, and a hook that the submit workloads
// call while their session is still up, after the timed windows.
func (e *env) runWorkload(name string, seed int64, seconds int, sz sizes, tr *tracer, hook func(*session)) *result {
	r := newResult(name, seed, seconds, false)
	start := time.Now()
	root := tr.begin(-1, name)
	switch name {
	case "paper_eval":
		e.runPaper(r, tr, root, sz.paper)
	case "sched_stream":
		e.runSched(r, false, tr, root, sz.stream)
	case "sched_burst":
		e.runSched(r, true, tr, root, sz.burst)
	case "gpmrd_submit":
		e.runSubmit(r, false, tr, root, sz.gpmrd, hook)
	case "gpmrd_reads":
		e.runReads(r, tr, root, sz.reads)
	case "fleet_submit":
		e.runSubmit(r, true, tr, root, sz.fleet, hook)
	}
	tr.end(root, r.Attempted)
	r.DurationS = time.Since(start).Seconds()
	if r.Failed > 0 {
		r.Correct = false
	}
	return r
}

// outDir is where the traced run leaves its spans.
var outDir = filepath.Join("benchmark", "out")

func printDefs(w *os.File) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (every workload; bound = share of the parent's median it may worsen by):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %-6s %-7s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run) and the end-to-end metric each should move:")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %-6s %-7s -> %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}
