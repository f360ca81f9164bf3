package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Probes of serve, fleet and obs. They share one in-process service
// shaped like the gpmrd the workloads start, so that the recording the
// obs probes walk and the trace the replay probes read are realistic.

// listen serves h on a free loopback port until the returned stop is
// called.
func listen(h http.Handler) (url string, stop func()) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	srv := &http.Server{Handler: h}
	go srv.Serve(l)
	return "http://" + l.Addr().String(), func() { srv.Close() }
}

func quietLogf(string, ...any) {}

// httpTimes issues n requests built by mk and returns their latencies in
// milliseconds; any answer but 200 or 202 fails the probe.
func httpTimes(hc *http.Client, n int, mk func(i int) (method, url string, body []byte)) []float64 {
	out := make([]float64, n)
	for i := range out {
		method, url, body := mk(i)
		start := time.Now()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		must(err)
		resp, err := hc.Do(req)
		must(err)
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		must(err)
		out[i] = time.Since(start).Seconds() * 1e3
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			panic(fmt.Sprintf("%s %s: status %d", method, url, resp.StatusCode))
		}
	}
	return out
}

func (p *probeRun) probeServeFleetObs() {
	const phys = 4096
	cat := serve.DefaultCatalog(phys)
	n := p.n(60)
	for _, kind := range catalogKinds {
		d := p.timed("serve.build."+kind, n, func() {
			for i := 0; i < n; i++ {
				_, err := cat.Build(kind, "probe-"+strconv.Itoa(i), serve.Params{"seed": int64(i + 1)})
				must(err)
			}
		})
		p.set("serve.build_us."+kind, d.Seconds()*1e6/float64(n))
	}

	// The service: gpmrd's configuration, recording its arrival trace.
	cc := cluster.DefaultConfig(16)
	cc.Obs = obs.New()
	var trace bytes.Buffer
	sv, err := serve.Start(serve.Config{Cluster: cc, Policy: sched.Policy{Kind: sched.WeightedFair},
		Catalog: cat, MaxQueue: 64, TimeScale: 1000, KeepOutputs: 16, TraceW: &trace})
	must(err)
	request := func(i int) serve.Request {
		return serve.Request{Tenant: "t" + strconv.Itoa(i%gpmrdTenants), Kind: catalogKinds[i%len(catalogKinds)],
			Params: serve.Params{"seed": int64(i + 1)}}
	}
	jobs := 0
	n = p.n(150)
	times := make([]float64, n)
	p.timed("serve.submit", n, func() {
		for i := range times {
			start := time.Now()
			info, err := sv.Submit(request(jobs))
			must(err)
			times[i] = time.Since(start).Seconds() * 1e6
			if info.State == serve.Rejected {
				panic("serve.submit: rejected: " + info.Reason)
			}
			jobs++
		}
	})
	p.set("serve.submit_us_p50", percentile(times, 50))
	p.set("serve.submit_us_p95", percentile(times, 95))

	// The HTTP surface on a loopback listener, one keep-alive connection.
	url, stopHTTP := listen(serve.NewHandler(sv, serve.HandlerConfig{Logf: quietLogf}))
	hc := &http.Client{}
	n = p.n(100)
	var ms []float64
	p.timed("serve.http.post", n, func() {
		bodies := jobBodies(1, jobs, n, gpmrdTenants)
		ms = httpTimes(hc, n, func(i int) (string, string, []byte) { return http.MethodPost, url + "/jobs", bodies[i] })
		jobs += n
	})
	p.set("serve.http.post_us_p50", percentile(ms, 50)*1e3)
	waitAllDone(sv, jobs)

	get := func(name string, n int, path func(i int) string) []float64 {
		var out []float64
		p.timed("serve.http."+name, n, func() {
			out = httpTimes(hc, n, func(i int) (string, string, []byte) { return http.MethodGet, url + path(i), nil })
		})
		return out
	}
	jobPath := func(suffix string) func(int) string {
		return func(i int) string { return "/jobs/" + strconv.Itoa(i*7%jobs) + suffix }
	}
	p.set("serve.http.get_job_us_p50", percentile(get("get_job", p.n(300), jobPath("")), 50)*1e3)
	p.set("serve.http.metrics_us_p50", percentile(get("metrics", p.n(200), func(int) string { return "/metrics" }), 50)*1e3)
	p.set("serve.http.explain_ms_p50", percentile(get("explain", p.n(30), jobPath("/explain")), 50))
	p.set("serve.http.timeline_ms_p50", percentile(get("timeline", p.n(30), jobPath("/timeline")), 50))
	p.set("serve.http.list_ms_p50", percentile(get("list", p.n(30), func(int) string { return "/jobs" }), 50))
	p.set("serve.http.flight_ms", median(get("flight", 3, func(int) string { return "/flight" })))

	p.probeFleetLive(url, hc)
	p.probeObs(sv.Recorder())

	stopHTTP()
	var rep *serve.Report
	d := p.timed("serve.drain", 1, func() {
		var err error
		rep, err = sv.Drain()
		must(err)
	})
	p.set("serve.drain_ms", d.Seconds()*1e3)

	// The offline paths over the trace just recorded.
	const reps = 5
	var tr *serve.Trace
	d = p.timed("serve.readtrace", reps, func() {
		for r := 0; r < reps; r++ {
			var err error
			tr, err = serve.ReadTrace(bytes.NewReader(trace.Bytes()))
			must(err)
		}
	})
	p.set("serve.readtrace_mb_per_s", float64(reps*trace.Len())/1e6/d.Seconds())
	head := &serve.Trace{Header: tr.Header, Events: tr.Events[:min(len(tr.Events), p.n(80))]}
	d = p.timed("serve.replay", len(head.Events), func() {
		_, err := serve.Replay(head, serve.ReplayOptions{})
		must(err)
	})
	p.set("serve.replay_jobs_per_s", perSecond(len(head.Events), d))

	p.probeFleetOffline(rep, head)
}

// waitAllDone blocks until the service has finished every submitted job.
func waitAllDone(sv *serve.Server, jobs int) {
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		st := sv.Stats()
		if int(st.Done) == jobs {
			return
		}
		if st.Failed > 0 || time.Now().After(deadline) {
			panic(fmt.Sprintf("serve probe: %d of %d jobs done, %d failed", st.Done, jobs, st.Failed))
		}
	}
}

// probeFleetLive times the router in front of stub shards (the hop
// alone) and in front of the live service (the explain proxy).
func (p *probeRun) probeFleetLive(liveURL string, hc *http.Client) {
	n := p.n(200_000)
	ring, err := fleet.NewRing([]string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}, 0)
	must(err)
	loads := map[string]int{"s0": 3, "s1": 1, "s2": 4, "s3": 1, "s4": 5, "s5": 9, "s6": 2, "s7": 6}
	d := p.timed("fleet.ring_pick", n, func() {
		for i := 0; i < n; i++ {
			if _, ok := ring.Pick("t"+strconv.Itoa(i&1023), loads, 1.25); !ok {
				panic("fleet.ring_pick: no shard")
			}
		}
	})
	p.set("fleet.ring_picks_per_s", perSecond(n, d))

	// Stub shards answer 202 at once, so Router.Submit is the hop alone.
	stub := http.NewServeMux()
	nextID := 0
	stub.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobInfo{ID: nextID, Tag: req.Tag, Status: "queued"})
		nextID++
	})
	var shards []fleet.Shard
	for i := 0; i < fleetShards; i++ {
		u, stop := listen(stub)
		defer stop()
		shards = append(shards, fleet.Shard{ID: "s" + strconv.Itoa(i), URL: u})
	}
	rt, err := fleet.New(fleet.Config{Shards: shards, Logf: quietLogf})
	must(err)
	n = p.n(300)
	times := make([]float64, n)
	p.timed("fleet.submit_hop", n, func() {
		for i := range times {
			start := time.Now()
			st := rt.Submit(serve.Request{Tenant: "t" + strconv.Itoa(i%fleetTenants), Kind: "wo"})
			times[i] = time.Since(start).Seconds() * 1e6
			if st.Code != http.StatusAccepted {
				panic(fmt.Sprintf("fleet.submit_hop: status %d %s", st.Code, st.Err))
			}
		}
	})
	p.set("fleet.submit_hop_us_p50", percentile(times, 50))

	// The explain proxy: router handler -> the live service -> obs.
	live, err := fleet.New(fleet.Config{Shards: []fleet.Shard{{ID: "s0", URL: liveURL}}, Logf: quietLogf})
	must(err)
	n = p.n(20)
	for i := 0; i < n; i++ {
		if st := live.Submit(serve.Request{Tenant: "t0", Kind: "wo", Params: serve.Params{"seed": int64(i + 1)}}); st.Code != http.StatusAccepted {
			panic(fmt.Sprintf("fleet.proxy_explain: submit status %d %s", st.Code, st.Err))
		}
	}
	front, stop := listen(fleet.NewHandler(live, fleet.HandlerConfig{Logf: quietLogf}))
	defer stop()
	var ms []float64
	p.timed("fleet.proxy_explain", n, func() {
		ms = httpTimes(hc, n, func(i int) (string, string, []byte) {
			return http.MethodGet, front + "/jobs/" + strconv.Itoa(i) + "/explain", nil
		})
	})
	p.set("fleet.proxy_explain_ms_p50", percentile(ms, 50))
}

// probeFleetOffline times the merge, directory replay and stitch over
// shard traces written from the recorded one.
func (p *probeRun) probeFleetOffline(rep *serve.Report, tr *serve.Trace) {
	text := rep.String()
	var resps []serve.DrainResponse
	for i := 0; i < fleetShards; i++ {
		resps = append(resps, serve.DrainResponse{Shard: "s" + strconv.Itoa(i), Submitted: rep.Stats.Submitted,
			Done: rep.Stats.Done, Report: text})
	}
	const reps = 20
	d := p.timed("fleet.merge", reps, func() {
		for r := 0; r < reps; r++ {
			fleet.Merge(resps)
		}
	})
	p.set("fleet.merge_ms", d.Seconds()*1e3/reps)

	dir := filepath.Join(p.dir, "shardtraces")
	must(os.MkdirAll(dir, 0o755))
	const traces = 2 // each shard trace holds every second arrival
	for i := 0; i < traces; i++ {
		var buf bytes.Buffer
		hdr := tr.Header
		hdr.Shard = "s" + strconv.Itoa(i)
		tw := serve.NewTraceWriter(&buf, hdr)
		for k := i; k < len(tr.Events); k += traces {
			a := *tr.Events[k].Arrive
			a.Seq = k / traces
			tw.Arrive(a)
		}
		must(tw.Flush())
		must(os.WriteFile(filepath.Join(dir, hdr.Shard+".jsonl"), buf.Bytes(), 0o644))
	}
	jobs := len(tr.Events)
	d = p.timed("fleet.replaydir", jobs, func() {
		_, err := fleet.ReplayDir(dir, serve.ReplayOptions{})
		must(err)
	})
	p.set("fleet.replaydir_jobs_per_s", perSecond(jobs, d))
	d = p.timed("fleet.stitch", jobs, func() {
		_, err := fleet.StitchDir(dir, serve.ReplayOptions{})
		must(err)
	})
	p.set("fleet.stitch_ms", d.Seconds()*1e3)
}

// probeObs times recording, and the read paths over the service's own
// recording scaled to 100 000 events.
func (p *probeRun) probeObs(live *obs.Recorder) {
	n := p.n(500_000)
	var rec *obs.Recorder
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := p.timed("obs.record", n, func() {
		rec = obs.New()
		for i := 0; i < n; i++ {
			rec.Span(int64(i), int64(i+10), obs.CatSim, "probe/r0/compute", "kernel", obs.A("name", "probe"))
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.set("obs.record_mevents_per_s", perSecond(n, d)/1e6)
	p.set("obs.bytes_per_event", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(rec.Len()))

	// The multijob stream with the recorder attached over without.
	opts := bench.Options{PhysBudget: p.n(1 << 14)}
	off := p.timed("obs.overhead.off", 1, func() { _, _, err := bench.Multijob(opts); must(err) })
	opts.Obs = obs.New()
	on := p.timed("obs.overhead.on", 1, func() { _, _, err := bench.Multijob(opts); must(err) })
	p.set("obs.overhead_ratio", on.Seconds()/off.Seconds())

	per100k := func(d time.Duration, events int) float64 { return d.Seconds() * 1e3 * 1e5 / float64(events) }
	var evs []obs.Event
	d = p.timed("obs.canonical", live.Len(), func() { evs = live.Canonical() })
	p.set("obs.canonical_ms_per_100k", per100k(d, live.Len()))
	keys := obs.Jobs(evs)
	if len(keys) == 0 {
		panic("obs: the service recorded no job")
	}
	const explains = 5
	d = p.timed("obs.explain", explains, func() {
		for i := 0; i < explains; i++ {
			obs.Explain(evs, keys[i*len(keys)/explains])
		}
	})
	p.set("obs.explain_ms_per_100k", per100k(d, explains*len(evs)))
	d = p.timed("obs.chrome", len(evs), func() { must(obs.WriteChrome(io.Discard, evs, nil)) })
	p.set("obs.chrome_ms_per_100k", per100k(d, len(evs)))
	d = p.timed("obs.jsonl", len(evs), func() { must(obs.WriteJSONL(io.Discard, evs)) })
	p.set("obs.jsonl_ms_per_100k", per100k(d, len(evs)))
}
