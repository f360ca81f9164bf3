package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// The traced run. It re-runs the chosen workload at reduced counts with
// harness spans off and on (their ratio is the tracing overhead), runs
// reduced paper_eval, gpmrd and fleet sessions for the process-level
// numbers, finds the highest fixed rate each front door sustains, and
// then runs the probe suite in a child process. Every per-layer metric
// is measured in every traced run, whichever workload was chosen.

// reducedSizes are a quarter of the full counts, one set-up each.
func reducedSizes(seconds int, quick bool) sizes {
	if quick {
		red := sizesFor(seconds, true)
		red.gpmrd.debug = true
		return red
	}
	full := sizesFor(seconds, false)
	q := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/4, 1)
	}
	red := sizes{
		paper:  paperSizes{passes: 1, phys: 2048, setups: 1},
		stream: schedSizes{jobs: q(full.stream.jobs), setups: 1},
		burst:  schedSizes{jobs: full.burst.jobs / 2, setups: 1}, // an eighth of the cubic cost
		gpmrd:  full.gpmrd,
		reads:  full.reads,
		fleet:  full.fleet,
	}
	for _, s := range []*servingSizes{&red.gpmrd, &red.reads, &red.fleet} {
		s.closed, s.open, s.populate, s.reads, s.setups = q(s.closed), q(s.open), q(s.populate), q(s.reads), 1
	}
	red.gpmrd.debug = true
	return red
}

// sloRates are the fixed rates tried, highest first.
var sloRates = []float64{400, 200, 100, 50}

// Latency limits on done p95 for the rate ladder. Behind the router done
// shows only at the next 500 ms probe, so its limit allows for one.
const (
	gpmrdSLOLimitMs = 50
	fleetSLOLimitMs = 550
)

// sloRate returns the highest of the fixed rates the front door sustains
// for rungSeconds with done p95 within the limit, no growing backlog (the
// last quarter's median is within the limit too) and at most 1% failed.
func (s *session) sloRate(limitMs float64, rungSeconds float64) float64 {
	for _, rate := range sloRates {
		n := int(rate * rungSeconds)
		ops := s.makeJobs(n)
		p := s.lg.openLoop(fmt.Sprintf("slo@%g", rate), s.front.url, ops, arrivalSchedule(s.seed+int64(rate), n, rate))
		_, done := latenciesMs(ops)
		if len(done) == 0 {
			continue
		}
		tail := done[len(done)*3/4:]
		if float64(p.Failed) <= 0.01*float64(n) && percentile(done, 95) <= limitMs && percentile(tail, 50) <= limitMs {
			return rate
		}
	}
	return 0
}

// runTraced produces the per-layer metrics.
func (e *env) runTraced(name string, seed int64, seconds int, quick bool) *result {
	start := time.Now()
	r := newResult(name, seed, seconds, true)
	tr := newTracer(name)
	red := reducedSizes(seconds, quick)
	rung := 0.6
	if quick {
		rung = 0.2
	}

	absorb := func(sub *result) *result {
		r.Attempted += sub.Attempted
		r.Failed += sub.Failed
		for _, msg := range sub.Errors {
			r.errorf("%s: %s", sub.Workload, msg)
		}
		r.Phases = append(r.Phases, sub.Phases...)
		return sub
	}
	// The chosen workload, spans off then on.
	plain := absorb(e.runWorkload(name, seed, seconds, red, nil, nil))
	slo := map[string]float64{}
	measureSLO := func(s *session) {
		if s.fleet {
			slo["fleet"] = s.sloRate(fleetSLOLimitMs, rung)
		} else {
			slo["gpmrd"] = s.sloRate(gpmrdSLOLimitMs, rung)
		}
	}
	sessions := map[string]*result{name: absorb(e.runWorkload(name, seed, seconds, red, tr, measureSLO))}
	for _, w := range []string{"paper_eval", "gpmrd_submit", "fleet_submit"} {
		if sessions[w] == nil {
			sessions[w] = absorb(e.runWorkload(w, seed, seconds, red, tr, measureSLO))
		}
	}
	traced := sessions[name]
	if p, t := plain.Metrics["ops_per_s"].Value, traced.Metrics["ops_per_s"].Value; p > 0 && t > 0 {
		r.set("harness.trace_overhead", p/t, 0)
	}
	paper, gpmrd, fleet := sessions["paper_eval"], sessions["gpmrd_submit"], sessions["fleet_submit"]
	for _, exp := range benchExperiments {
		r.set("bench."+exp+"_s", paper.Detail["bench."+exp+"_s"].Value, 1)
	}
	copyDetail := func(dst string, from *result, src string) {
		if v, ok := from.Detail[src]; ok {
			r.set(dst, v.Value, v.N)
		}
	}
	copyDetail("loadgen.late_ms_p95", gpmrd, "loadgen.late_ms_p95")
	copyDetail("loadgen.cpu_s", gpmrd, "loadgen.cpu_s")
	copyDetail("gpmrd.rss_kb_per_job", gpmrd, "sut.rss_kb_per_job")
	copyDetail("gpmrd.gc_pause_ms", gpmrd, "sut.gc_pause_ms")
	copyDetail("gpmrd.accept_p50_ms", gpmrd, "accept_p50_ms")
	copyDetail("gpmrd.accept_p99_ms", gpmrd, "accept_p99_ms")
	copyDetail("gpmrd.done_p99_ms", gpmrd, "done_p99_ms")
	copyDetail("fleet.router_cpu_s", fleet, "router.cpu_s")
	copyDetail("fleet.accept_p50_ms", fleet, "accept_p50_ms")
	copyDetail("fleet.done_p99_ms", fleet, "done_p99_ms")
	if v, ok := slo["gpmrd"]; ok {
		r.set("gpmrd.slo_rate_jobs_per_s", v, 0)
	}
	if v, ok := slo["fleet"]; ok {
		r.set("fleet.slo_rate_jobs_per_s", v, 0)
	}

	// The probe suite, in a process of its own.
	psp := tr.begin(-1, "probes")
	args := []string{e.self, "-child", "probes", "-dir", e.runDir}
	if quick {
		args = append(args, "-quick")
	}
	c, err := runChild(nil, -1, "probes", args...)
	var rep probeReport
	if err == nil {
		err = json.Unmarshal([]byte(c.lastLine), &rep)
	}
	if err == nil && rep.Error != "" {
		err = fmt.Errorf("%s", rep.Error)
	}
	if err != nil {
		r.errorf("probe suite: %v", err)
	}
	tr.end(psp, len(rep.Spans))
	base := tr.spanStart(psp)
	for _, ps := range rep.Spans {
		tr.add(span{Parent: psp, Name: "probe " + ps.Name, Start: base + ps.Start, End: base + ps.End, Ops: ps.Ops})
	}
	for n, v := range rep.Metrics {
		r.set(n, v, 0)
	}

	r.set("harness.spans", float64(tr.count()), 0)
	if err := writeSpans(filepath.Join(outDir, "spans.json"), tr.finish()); err != nil {
		r.errorf("writing spans: %v", err)
	}
	r.DurationS = time.Since(start).Seconds()
	if r.Failed > 0 {
		r.Correct = false
	}
	return r
}
