package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// The three batch workloads: paper_eval runs gpmrbench processes;
// sched_stream and sched_burst run this binary's own child mode, which
// feeds no-op-kernel jobs to gpmr.RunJobs (see schedchild.go). One
// operation is one child process on paper_eval and one simulated job on
// the sched workloads.

// childRun is one finished child process.
type childRun struct {
	firstByteS float64 // spawn to the first byte on stdout
	wallS      float64 // spawn to exit
	usage      childUsage
	sum        [sha256.Size]byte
	lastLine   string
}

// runChild runs a command to completion, hashing its stdout and timing
// the first output byte and the exit from the moment of the spawn.
func runChild(tr *tracer, parent int, name string, argv ...string) (childRun, error) {
	sp := tr.begin(parent, name)
	defer tr.end(sp, 1)
	var c childRun
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return c, err
	}
	h := sha256.New()
	rd := bufio.NewReader(out)
	if _, err := rd.Peek(1); err == nil {
		c.firstByteS = time.Since(start).Seconds()
	}
	sc := bufio.NewScanner(io.TeeReader(rd, h))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		c.lastLine = sc.Text()
	}
	err = cmd.Wait()
	c.wallS = time.Since(start).Seconds()
	if c.firstByteS == 0 {
		c.firstByteS = c.wallS
	}
	if err != nil {
		return c, fmt.Errorf("%s: %w", name, err)
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("%s: reading stdout: %w", name, err)
	}
	copy(c.sum[:], h.Sum(nil))
	c.usage = usageOf(cmd.ProcessState)
	return c, nil
}

// paperSizes shape one paper_eval run.
type paperSizes struct {
	passes int
	phys   int // 0 = gpmrbench's default budget, what a researcher runs
	setups int
}

// recheck lists the experiments cheap enough to run a second time when a
// run has a single pass, so that the equal-across-passes check still has
// something to compare.
var recheck = []string{"table1", "table2", "table3", "imbalance", "faults", "multijob"}

// paperSeed is the -seed every gpmrbench process gets: the tool's own
// default, which is what a researcher runs and what EXPERIMENTS.md
// records. The benchmark's seed cannot be passed through, because the
// cost of the stream experiments depends on it (-exp slo takes 2.8 s at
// one seed and 8.2 s at another), which would bury any host-side change
// in seed noise. The benchmark's seed sets the order of the processes
// instead, which leaves the work fixed.
const paperSeed = "1"

// runPaper is paper_eval: every experiment as its own gpmrbench process,
// `passes` times over. Stdout must hash the same on every pass.
func (e *env) runPaper(r *result, tr *tracer, root int, sz paperSizes) {
	bin := e.binary("gpmrbench")
	order := append([]string(nil), benchExperiments...)
	newRNG(r.Seed, streamOrder).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	argv := func(exp string) []string {
		a := []string{bin, "-exp", exp, "-seed", paperSeed}
		if sz.phys > 0 {
			a = append(a, "-phys", strconv.Itoa(sz.phys))
		}
		return a
	}
	// Set-up: fault the binary in and let it parse its registry.
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		for _, a := range [][]string{{bin, "-list"}, {bin, "-exp", "table1"}, {bin, "-exp", "table2", "-phys", "1024"},
			{bin, "-exp", "imbalance", "-phys", "1024"}, {bin, "-exp", "faults", "-phys", "1024"}} {
			if _, err := runChild(nil, -1, "warmup", a...); err != nil {
				r.errorf("set-up: %v", err)
				return
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	sums := make(map[string][sha256.Size]byte)
	all := sha256.New()
	var accept, done []float64
	var cpu, rss float64
	start := time.Now()
	for pass := 0; pass < sz.passes; pass++ {
		psp := tr.begin(root, "pass")
		for _, exp := range order {
			c, err := runChild(tr, psp, "gpmrbench -exp "+exp, argv(exp)...)
			r.Attempted++
			if err != nil {
				r.Failed++
				r.errorf("%v", err)
				continue
			}
			if prev, seen := sums[exp]; seen && prev != c.sum {
				r.Failed++
				r.errorf("%s: stdout differs between passes", exp)
			}
			if pass == 0 {
				sums[exp] = c.sum
				r.detail("bench."+exp+"_s", "s", c.wallS, 1)
			}
			accept = append(accept, c.firstByteS*1e3)
			done = append(done, c.wallS*1e3)
			cpu += c.usage.cpuS
			if c.usage.rssMB > rss {
				rss = c.usage.rssMB
			}
		}
		tr.end(psp, len(benchExperiments))
	}
	wall := time.Since(start).Seconds()
	if sz.passes == 1 {
		for _, exp := range recheck {
			c, err := runChild(nil, -1, "recheck "+exp, argv(exp)...)
			if err != nil {
				r.errorf("%v", err)
			} else if c.sum != sums[exp] {
				r.Failed++
				r.errorf("%s: stdout differs when run again", exp)
			}
		}
	}
	for _, exp := range benchExperiments { // registry order, whatever order they ran in
		sum := sums[exp]
		all.Write(sum[:])
	}
	r.SimDigest = hex.EncodeToString(all.Sum(nil))
	r.Phases = append(r.Phases, phaseResult{Name: "experiments", Attempted: r.Attempted, Failed: r.Failed, WallS: wall})
	r.set("setup_s", median(setups), len(setups))
	r.set("wall_s", wall, 0)
	r.set("ops_per_s", float64(r.Attempted-r.Failed)/wall, r.Attempted)
	r.set("cpu_s", cpu, 0)
	r.set("peak_rss_mb", rss, 0)
	r.detail("accept_p50_ms", "ms", percentile(accept, 50), len(accept))
	r.set("accept_p95_ms", percentile(accept, 95), len(accept))
	r.set("done_p50_ms", percentile(done, 50), len(done))
	r.set("done_p95_ms", percentile(done, 95), len(done))
}

// schedSizes shape one sched_stream or sched_burst run.
type schedSizes struct {
	jobs   int
	setups int
}

// schedReport is what the sched child prints as its last line.
type schedReport struct {
	Jobs        int     `json:"jobs"`
	Digest      string  `json:"digest"`
	GenS        float64 `json:"gen_s"`
	RunS        float64 `json:"run_s"`
	StringS     float64 `json:"string_s"`
	AcceptP50Ms float64 `json:"accept_p50_ms"`
	AcceptP95Ms float64 `json:"accept_p95_ms"`
	DoneP50Ms   float64 `json:"done_p50_ms"`
	DoneP95Ms   float64 `json:"done_p95_ms"`
	Error       string  `json:"error,omitempty"`
}

// schedChild runs the sched child once.
func (e *env) schedChild(tr *tracer, parent int, burst bool, jobs int, seed int64) (childRun, schedReport, error) {
	mode := "stream"
	if burst {
		mode = "burst"
	}
	c, err := runChild(tr, parent, "sched child "+mode, e.self, "-child", "sched-"+mode,
		"-n", strconv.Itoa(jobs), "-seed", strconv.FormatInt(seed, 10))
	var rep schedReport
	if err != nil {
		return c, rep, err
	}
	if err := json.Unmarshal([]byte(c.lastLine), &rep); err != nil {
		return c, rep, fmt.Errorf("sched child: bad report %q: %v", c.lastLine, err)
	}
	if rep.Error != "" {
		return c, rep, fmt.Errorf("sched child: %s", rep.Error)
	}
	return c, rep, nil
}

// runSched is sched_stream and sched_burst: one child process runs every
// job through one gpmr.RunJobs call. A second, small child run with the
// same seed checks that the trace digest repeats.
func (e *env) runSched(r *result, burst bool, tr *tracer, root int, sz schedSizes) {
	warmJobs := 1000
	if burst {
		warmJobs = 300 // a burst's cost grows with the cube of its depth
	}
	var setups []float64
	var warmDigest string
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		_, rep, err := e.schedChild(nil, -1, burst, warmJobs, r.Seed)
		if err != nil {
			r.errorf("set-up: %v", err)
			return
		}
		if warmDigest != "" && rep.Digest != warmDigest {
			r.errorf("trace digest of %d jobs differs between two runs of seed %d", warmJobs, r.Seed)
		}
		warmDigest = rep.Digest
		setups = append(setups, time.Since(start).Seconds())
	}
	c, rep, err := e.schedChild(tr, root, burst, sz.jobs, r.Seed)
	r.Attempted = sz.jobs
	if err != nil {
		r.Failed = sz.jobs
		r.errorf("%v", err)
		return
	}
	if rep.Jobs != sz.jobs {
		r.Failed = sz.jobs - rep.Jobs
		r.errorf("trace holds %d jobs, %d were submitted", rep.Jobs, sz.jobs)
	}
	r.SimDigest = rep.Digest
	r.Phases = append(r.Phases, phaseResult{Name: "runjobs", Attempted: r.Attempted, Failed: r.Failed, WallS: c.wallS})
	r.set("setup_s", median(setups), len(setups))
	r.set("wall_s", c.wallS, 0)
	r.set("ops_per_s", float64(rep.Jobs)/c.wallS, sz.jobs)
	r.set("cpu_s", c.usage.cpuS, 0)
	r.set("peak_rss_mb", c.usage.rssMB, 0)
	r.detail("accept_p50_ms", "ms", rep.AcceptP50Ms, sz.jobs)
	r.set("accept_p95_ms", rep.AcceptP95Ms, sz.jobs)
	r.set("done_p50_ms", rep.DoneP50Ms, sz.jobs)
	r.set("done_p95_ms", rep.DoneP95Ms, sz.jobs)
	r.detail("child.gen_s", "s", rep.GenS, 0)
	r.detail("child.runjobs_s", "s", rep.RunS, 0)
	r.detail("child.trace_string_s", "s", rep.StringS, 0)
}
