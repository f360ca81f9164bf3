package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The three serving workloads: gpmrd_submit, gpmrd_reads and
// fleet_submit. All drive real daemons over loopback HTTP.

// servingSizes are the operation counts of one serving run.
type servingSizes struct {
	warmup   int     // untimed jobs before any window
	closed   int     // phase A: closed-loop jobs
	openRate float64 // phase B: arrivals per second
	open     int     // phase B: arrivals
	populate int     // gpmrd_reads: finished jobs the daemon holds
	reads    int     // gpmrd_reads: requests in the timed window
	setups   int     // how many times set-up is repeated for its median
	debug    bool    // start gpmrd with -debug-addr, for its expvar GC figures
}

const (
	gpmrdTenants = 4
	fleetTenants = 8
	fleetShards  = 3
)

// session is one started system under test plus the generator aimed at
// it.
type session struct {
	e       *env
	fleet   bool
	procs   procSet // every process of the system under test
	front   *daemon // where requests go
	debug   string  // gpmrd's expvar URL, "" when not requested
	traces  []string
	tenants int
	seed    int64
	lg      *loadgen
	nextIdx int
	jobs    []*jobOp // every job submitted, warm-up included

	closedJobs, openJobs []*jobOp // the inputs of the timed windows
}

// startSession starts gpmrd, or gpmrfleet in front of three gpmrd
// shards, and waits until the front door is healthy.
func (e *env) startSession(fleet bool, seed int64, tr *tracer, tag string, debug bool) (*session, error) {
	gap := gpmrdPollGap
	if fleet {
		gap = fleetPollGap
	}
	s := &session{e: e, fleet: fleet, seed: seed, tenants: gpmrdTenants, lg: newLoadgen(connections(), gap, tr)}
	dir := filepath.Join(e.runDir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if !fleet {
		trace := filepath.Join(dir, "gpmrd.jsonl")
		args := []string{"-gpus", "16", "-phys", "4096", "-timescale", "1000", "-queue", "64", "-trace", trace}
		if debug {
			addr, err := freeAddr()
			if err != nil {
				return nil, err
			}
			args = append(args, "-debug-addr", addr)
			s.debug = "http://" + addr + "/debug/vars"
		}
		d, err := e.startDaemon(tag+"-gpmrd", "gpmrd", args...)
		if err != nil {
			return nil, err
		}
		s.procs, s.front, s.traces = procSet{d}, d, []string{trace}
		return s, nil
	}
	s.tenants = fleetTenants
	var routerArgs []string
	for i := 0; i < fleetShards; i++ {
		id := "s" + strconv.Itoa(i)
		trace := filepath.Join(dir, id+".jsonl")
		d, err := e.startDaemon(tag+"-"+id, "gpmrd",
			"-gpus", "8", "-phys", "4096", "-timescale", "1000", "-queue", "64", "-trace", trace)
		if err != nil {
			s.procs.stopAll(2 * time.Second)
			return nil, err
		}
		s.procs = append(s.procs, d)
		s.traces = append(s.traces, trace)
		routerArgs = append(routerArgs, "-shard", id+"="+d.url)
	}
	router, err := e.startDaemon(tag+"-router", "gpmrfleet", routerArgs...)
	if err != nil {
		s.procs.stopAll(2 * time.Second)
		return nil, err
	}
	// The router first: stopping it drains the shards through it.
	s.procs = append(procSet{router}, s.procs...)
	s.front = router
	return s, nil
}

// makeJobs generates the next n submissions.
func (s *session) makeJobs(n int) []*jobOp {
	ops := make([]*jobOp, n)
	for i, body := range jobBodies(s.seed, s.nextIdx, n, s.tenants) {
		ops[i] = &jobOp{idx: s.nextIdx + i, body: body}
	}
	s.nextIdx += n
	return ops
}

// register makes submissions operations of the run: each must end done,
// and the replayed sample is checked against their digests. Only what is
// about to be submitted may be registered.
func (s *session) register(ops []*jobOp) []*jobOp {
	s.jobs = append(s.jobs, ops...)
	return ops
}

// closed runs a closed-loop window over every connection. Behind the
// fleet a client cannot wait for done: the router learns of it at its
// next probe. There the jobs are settled once the clock has stopped.
func (s *session) closed(name string, ops []*jobOp) phaseResult {
	p := s.lg.closedLoop(name, s.front.url, ops, connections(), !s.fleet)
	if s.fleet {
		s.lg.settle(s.front.url, ops)
		p.Failed = countFailed(ops)
	}
	return p
}

// stop drains the system under test and reaps every process.
func (s *session) stop() {
	s.lg.close()
	s.procs.stopAll(30 * time.Second)
}

// setUp starts a session, generates the inputs of its timed window and
// runs the untimed work that precedes it (warm-up and, for gpmrd_reads,
// population). It is timed as a whole.
func (e *env) setUp(fleet bool, seed int64, tr *tracer, root int, tag string, sz servingSizes) (*session, float64, error) {
	start := time.Now()
	s, err := e.startSession(fleet, seed, tr, tag, sz.debug)
	if err != nil {
		return nil, 0, err
	}
	s.lg.parent = root
	warm := s.register(s.makeJobs(sz.warmup + sz.populate))
	s.closedJobs, s.openJobs = s.makeJobs(sz.closed), s.makeJobs(sz.open)
	// Behind the fleet the warm-up jobs are settled with the rest, after the
	// window: waiting for the router's next probe here would make set-up
	// take half a second more or less by the luck of the probe's phase.
	if p := s.lg.closedLoop("warmup", s.front.url, warm, connections(), !s.fleet); p.Failed > 0 {
		for _, op := range warm {
			if op.err != "" {
				err = fmt.Errorf("warm-up: %s", op.err)
				break
			}
		}
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}

// measured runs fn and returns the CPU time every process of the system
// under test spent in it and their summed peak RSS after it.
func (s *session) measured(r *result, fn func()) (cpuS, peakMB float64) {
	before, err := s.procs.cpuSeconds()
	if err == nil {
		fn()
		var after, peakKB float64
		if after, err = s.procs.cpuSeconds(); err == nil {
			peakKB, err = s.procs.sumKB("VmHWM")
			cpuS, peakMB = after-before, peakKB/1024
		}
	}
	if err != nil {
		r.errorf("reading /proc: %v", err)
	}
	return cpuS, peakMB
}

// runSubmit is gpmrd_submit and fleet_submit: a closed loop, which yields
// the throughput, and an open loop at a fixed rate, which yields the
// latencies. Each window gets a freshly set-up system of its own — the
// last two of the repeated set-ups — so both start from the same state.
// On one daemon the second window would inherit the first one's heap:
// gpmrd keeps about 130 KB per finished job, and after a 2 400-job closed
// loop its garbage collector stalls requests for tens of milliseconds at
// random, which buried the open loop's percentiles in noise.
func (e *env) runSubmit(r *result, fleet bool, tr *tracer, root int, sz servingSizes, hook func(*session)) {
	setups := max(sz.setups, 2)
	var setupS []float64
	var closed, open phaseResult
	var cpuS, peakMB float64
	var openJobs []*jobOp
	genCPU := selfCPUSeconds()
	for i := 0; i < setups; i++ {
		s, t, err := e.setUp(fleet, r.Seed, tr, root, "setup"+strconv.Itoa(i), sz)
		if err != nil {
			r.errorf("set-up: %v", err)
			return
		}
		setupS = append(setupS, t)
		switch i {
		case setups - 2:
			rssBefore, _ := s.front.statusKB("VmRSS")
			c, p := s.measured(r, func() { closed = s.closed("closed", s.register(s.closedJobs)) })
			rssAfter, _ := s.front.statusKB("VmRSS")
			cpuS, peakMB = cpuS+c, max(peakMB, p)
			r.detail("sut.rss_kb_per_job", "KB", (rssAfter-rssBefore)/float64(closed.Attempted), 0)
			if fleet {
				if c, err := s.front.cpuSeconds(); err == nil {
					r.detail("router.cpu_s", "s", c, 0)
				}
			}
			s.finish(r)
		case setups - 1:
			c, p := s.measured(r, func() {
				open = s.lg.openLoop("open", s.front.url, s.register(s.openJobs), arrivalSchedule(r.Seed, sz.open, sz.openRate))
			})
			cpuS, peakMB = cpuS+c, max(peakMB, p)
			openJobs = s.openJobs
			if s.debug != "" {
				r.detail("sut.gc_pause_ms", "ms", gcPauseMs(s.debug), 0)
			}
			if hook != nil {
				hook(s)
			}
			s.finish(r)
		default:
			s.stop()
		}
	}
	genCPU = selfCPUSeconds() - genCPU
	r.addPhase(closed)
	r.addPhase(open)

	accept, done := latenciesMs(openJobs)
	r.set("setup_s", median(setupS), len(setupS))
	r.set("wall_s", closed.WallS+open.WallS, 0)
	r.set("ops_per_s", float64(closed.Attempted-closed.Failed)/closed.WallS, closed.Attempted)
	r.set("cpu_s", cpuS, 0)
	r.set("peak_rss_mb", peakMB, 0)
	r.detail("accept_p50_ms", "ms", percentile(accept, 50), len(accept))
	r.set("accept_p95_ms", percentile(accept, 95), len(accept))
	r.set("done_p50_ms", percentile(done, 50), len(done))
	r.set("done_p95_ms", percentile(done, 95), len(done))
	// p99 is reported as detail only; whether the sample supports it (ten
	// samples beyond its rank) shows in the line after.
	r.detail("accept_p99_ms", "ms", percentile(accept, 99), len(accept))
	r.detail("done_p99_ms", "ms", percentile(done, 99), len(done))
	r.detail("highest_supported_percentile", "%", highestPercentile(len(done), []float64{90, 95, 99, 99.9}), len(done))
	r.detail("loadgen.late_ms_p95", "ms", open.LateP95Ms, open.Attempted)
	r.detail("loadgen.cpu_s", "s", genCPU, 0)
	if open.LateP95Ms > 1 {
		r.Unresolved = fmt.Sprintf("open-loop generator ran late (p95 %.3f ms > 1 ms)", open.LateP95Ms)
	}
}

// finish reports failed operations, drains the system and replays a
// seeded 1-in-16 sample of the recorded arrivals offline; a digest that
// differs is a failed operation.
func (s *session) finish(r *result) {
	s.lg.settle(s.front.url, s.jobs)
	for _, op := range s.jobs {
		if op.err != "" {
			r.errorf("job %d: %s", op.idx, op.err)
		}
	}
	s.stop()
	expect := make(map[string]string) // tag (fleet) or shard-local id (gpmrd) -> digest
	for _, op := range s.jobs {
		if op.err != "" {
			continue
		}
		if s.fleet {
			expect[op.tag] = op.digest
		} else {
			expect[strconv.Itoa(op.id)] = op.digest
		}
	}
	checked := 0
	for _, trace := range s.traces {
		n, bad, err := s.e.replaySample(trace, r.Seed, s.fleet, expect)
		if err != nil {
			r.errorf("replaying %s: %v", filepath.Base(trace), err)
			continue
		}
		checked += n
		r.Failed += bad
		if bad > 0 {
			r.errorf("%d of %d replayed jobs of %s differ from the live digests", bad, n, filepath.Base(trace))
		}
	}
	r.detail("replayed_jobs", "count", r.Detail["replayed_jobs"].Value+float64(checked), 0)
	if checked == 0 {
		r.errorf("no job was replayed")
	}
}

// traceLine is one line of an arrival trace after the header.
type traceLine struct {
	Arrive map[string]json.RawMessage `json:"arrive"`
}

// replaySample keeps a seeded 1-in-16 sample of the arrivals recorded in
// tracePath, replays it with `gpmrd -replay`, and compares the replayed
// digests with the live ones. It returns how many jobs it compared and
// how many differed.
func (e *env) replaySample(tracePath string, seed int64, byTag bool, expect map[string]string) (int, int, error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("empty trace")
	}
	header := sc.Text()
	var arrivals []map[string]json.RawMessage
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return 0, 0, err
		}
		if l.Arrive != nil {
			arrivals = append(arrivals, l.Arrive)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	keep := sampleOneIn(seed, len(arrivals), 16)
	var sub strings.Builder
	sub.WriteString(header + "\n")
	var want []string
	for i, a := range arrivals {
		if !keep[i] {
			continue
		}
		key := string(a["seq"])
		if byTag {
			if err := json.Unmarshal(a["tag"], &key); err != nil {
				return 0, 0, fmt.Errorf("arrival without a tag: %v", err)
			}
		}
		digest, registered := expect[key]
		if !registered {
			continue // not an operation of the run (a rate-ladder rung), or already counted as failed
		}
		want = append(want, digest)
		// Replay wants arrivals numbered from 0 without gaps.
		a["seq"] = json.RawMessage(strconv.Itoa(len(want) - 1))
		line, err := json.Marshal(traceLine{Arrive: a})
		if err != nil {
			return 0, 0, err
		}
		sub.Write(line)
		sub.WriteByte('\n')
	}
	subPath := tracePath + ".sample"
	if err := os.WriteFile(subPath, []byte(sub.String()), 0o644); err != nil {
		return 0, 0, err
	}
	out, err := exec.Command(e.binary("gpmrd"), "-replay", subPath).Output()
	if err != nil {
		return 0, 0, fmt.Errorf("gpmrd -replay: %w", err)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) >= 10 && f[0] == "sjob" && f[8] == "dig" {
			got = append(got, f[9])
		}
	}
	if len(got) != len(want) {
		return 0, 0, fmt.Errorf("replay printed %d jobs, sample has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if want[i] == "" || want[i] != got[i] {
			bad++
		}
	}
	return len(want), bad, nil
}

// gcPauseMs reads the daemon's total GC pause from its expvar endpoint.
func gcPauseMs(url string) float64 {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			PauseTotalNs float64 `json:"PauseTotalNs"`
		} `json:"memstats"`
	}
	if json.NewDecoder(resp.Body).Decode(&vars) != nil {
		return 0
	}
	return vars.Memstats.PauseTotalNs / 1e6
}

// readOp is one request of the read mix and what came back.
type readOp struct {
	req               readReq
	due, header, done time.Time
	err               string
}

// runReads is gpmrd_reads: a closed loop of GETs in a fixed seeded mix
// against a daemon that holds finished jobs and receives no submissions.
func (e *env) runReads(r *result, tr *tracer, root int, sz servingSizes) {
	var setupS []float64
	var s *session
	for i := 0; i < sz.setups; i++ {
		if s != nil {
			s.stop()
		}
		var t float64
		var err error
		if s, t, err = e.setUp(false, r.Seed, tr, root, "setup"+strconv.Itoa(i), sz); err != nil {
			r.errorf("set-up: %v", err)
			return
		}
		setupS = append(setupS, t)
	}
	held := s.jobs[:sz.warmup+sz.populate]
	mix := readMix(r.Seed, sz.reads, len(held))
	ops := make([]*readOp, len(mix))
	for i, q := range mix {
		ops[i] = &readOp{req: q}
	}
	genCPU := selfCPUSeconds()
	var wall float64
	cpuS, peakMB := s.measured(r, func() { wall = s.readLoop(ops, held) })
	genCPU = selfCPUSeconds() - genCPU

	var accept, done []float64
	perKind := make([][]float64, numReadKinds)
	failed := 0
	for _, op := range ops {
		if op.err != "" {
			failed++
			r.errorf("read %s: %s", readKindNames[op.req.Kind], op.err)
			continue
		}
		accept = append(accept, op.header.Sub(op.due).Seconds()*1e3)
		d := op.done.Sub(op.due).Seconds() * 1e3
		done = append(done, d)
		perKind[op.req.Kind] = append(perKind[op.req.Kind], d)
	}
	r.addPhase(phaseResult{Name: "reads", Attempted: len(ops), Failed: failed, WallS: wall})
	r.set("setup_s", median(setupS), len(setupS))
	r.set("wall_s", wall, 0)
	r.set("ops_per_s", float64(len(ops)-failed)/wall, len(ops))
	r.set("cpu_s", cpuS, 0)
	r.set("peak_rss_mb", peakMB, 0)
	r.detail("accept_p50_ms", "ms", percentile(accept, 50), len(accept))
	r.set("accept_p95_ms", percentile(accept, 95), len(accept))
	r.set("done_p50_ms", percentile(done, 50), len(done))
	r.set("done_p95_ms", percentile(done, 95), len(done))
	for k, xs := range perKind {
		if len(xs) > 0 {
			r.detail("read."+readKindNames[k]+"_ms_p50", "ms", percentile(xs, 50), len(xs))
		}
	}
	r.detail("loadgen.cpu_s", "s", genCPU, 0)
	s.finish(r)
}

// readLoop sends the requests over every connection, each client taking
// the next request when its previous one is answered, and checks every
// answer. It returns the wall time.
func (s *session) readLoop(ops []*readOp, held []*jobOp) float64 {
	end := s.lg.phase("reads")

	next := make(chan *readOp)
	done := make(chan struct{})
	clients := connections()
	start := time.Now()
	for c := 0; c < clients; c++ {
		go func() {
			for op := range next {
				s.read(op, held)
			}
			done <- struct{}{}
		}()
	}
	for _, op := range ops {
		next <- op
	}
	close(next)
	for c := 0; c < clients; c++ {
		<-done
	}
	wall := time.Since(start).Seconds()
	end(len(ops))
	return wall
}

// read issues one request of the mix and checks the answer.
func (s *session) read(op *readOp, held []*jobOp) {
	job := held[op.req.Job]
	id := strconv.Itoa(job.id)
	base := s.front.url
	var path string
	switch op.req.Kind {
	case readJob:
		path = "/jobs/" + id
	case readMetrics:
		path = "/metrics"
	case readExplain:
		path = "/jobs/" + id + "/explain"
	case readTimeline:
		path = "/jobs/" + id + "/timeline"
	case readList:
		path = "/jobs"
	case readFlight:
		path = "/flight"
	}
	op.due = time.Now()
	code, data, tHead, tDone, err := s.lg.do("GET "+readKindNames[op.req.Kind], http.MethodGet, base+path, nil)
	op.header, op.done = tHead, tDone
	switch {
	case err != nil:
		op.err = err.Error()
	case code != http.StatusOK:
		op.err = fmt.Sprintf("status %d", code)
	default:
		op.err = checkRead(op.req.Kind, data, job, len(held))
	}
}

// checkRead validates one answer's content; "" means it is right.
func checkRead(kind readKind, data []byte, job *jobOp, held int) string {
	switch kind {
	case readJob:
		var j jobJSON
		if err := json.Unmarshal(data, &j); err != nil {
			return err.Error()
		}
		if j.State != "done" || j.digestHex() != job.digest {
			return fmt.Sprintf("job %d reads %s/%s, was done/%s", job.id, j.State, j.digestHex(), job.digest)
		}
	case readMetrics:
		if !strings.Contains(string(data), "gpmr_serve_") {
			return "no gpmr_serve_ series"
		}
	case readExplain, readTimeline:
		if !json.Valid(data) || len(data) < 16 {
			return "not a JSON document"
		}
	case readList:
		var js []jobJSON
		if err := json.Unmarshal(data, &js); err != nil {
			return err.Error()
		}
		if len(js) != held {
			return fmt.Sprintf("lists %d jobs, daemon holds %d", len(js), held)
		}
	case readFlight:
		if len(data) == 0 || data[0] != '{' {
			return "not a JSONL recording"
		}
	}
	return ""
}
