package main

// The benchmark's vocabulary: workload names, end-to-end metrics with
// their regression bounds, and per-layer metrics with the end-to-end
// metric and workload each should move. BENCHMARK.json carries the same
// lists; defs_test.go keeps the two in agreement.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"paper_eval", "13 gpmrbench experiments, one process each; kernels, input generation and keyval/mph dominate, the engine is about 5%"},
	{"sched_stream", "spaced no-op-kernel jobs through gpmr.RunJobs; the queue stays empty, so des dispatch and per-job spin-up do all the work"},
	{"sched_burst", "the same no-op jobs all arriving at t=0; the deep queue makes sched's placement pass dominant, kernels still bypassed"},
	{"gpmrd_submit", "real gpmrd over loopback HTTP, a closed loop and a fixed-rate open loop; HTTP decode, Catalog.Build, injector hand-off, always-on obs"},
	{"gpmrd_reads", "the same daemon holding finished jobs, a fixed seeded mix of GETs; explain and timeline re-walk the recording, submit path idle"},
	{"fleet_submit", "gpmrfleet in front of three gpmrd shards; adds ring pick, proxy hop, probe-driven table refresh and probe-quantised done"},
}

// metricDef is one end-to-end metric. Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Every end-to-end metric is reported on every workload; the README's
// table says what one operation is on each (an experiment process, a
// simulated job, an HTTP request).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.12},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"cpu_s", "s", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"accept_p95_ms", "ms", "lower", 0.25},
	{"done_p50_ms", "ms", "lower", 0.15},
	{"done_p95_ms", "ms", "lower", 0.25},
}

// layerDef is one per-layer metric and the end-to-end metric and
// workload it should move; everywhere else the prediction is no change.
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

var benchExperiments = []string{
	"table1", "fig3", "fig2", "table2", "table3", "weak", "ablation",
	"imbalance", "faults", "multijob", "online", "slo", "fleet",
}

var probeApps = []string{"mm", "sio", "wo", "kmc", "lr"}

// perLayer is built once: the probe suite's metrics first, then the
// process-level numbers the traced sessions yield.
var perLayer = buildPerLayer()

func buildPerLayer() []layerDef {
	const (
		stream = "ops_per_s on sched_stream"
		burst  = "ops_per_s on sched_burst"
		paper  = "wall_s and cpu_s on paper_eval"
		accept = "accept_p95_ms on gpmrd_submit"
		reads  = "ops_per_s on gpmrd_reads"
		fleetM = "accept_p95_ms and ops_per_s on fleet_submit"
		gsub   = "ops_per_s and peak_rss_mb on gpmrd_submit"
	)
	l := []layerDef{
		{"des.timer_events_per_s", "1/s", higher, stream},
		{"des.pingpong_events_per_s", "1/s", higher, stream},
		{"des.resource_events_per_s", "1/s", higher, stream},
		{"des.post_events_per_s", "1/s", higher, stream},
		{"des.allocs_per_event", "count", lower, stream},
		{"des.future_join_ns", "ns", lower, stream},
		{"des.inject_events_per_s", "1/s", higher, accept},

		{"gpu.launch_serial_ns", "ns", lower, paper},
		{"gpu.launch_pool_ns", "ns", lower, paper},
		{"gpu.pool_speedup", "ratio", higher, paper},
		{"fabric.sendrecv_msgs_per_s", "1/s", higher, paper},
		{"cluster.new_us", "us", lower, paper},

		{"cudpp.sortpairs_mpairs_per_s", "M/s", higher, paper},
		{"cudpp.segments_mkeys_per_s", "M/s", higher, paper},
		{"keyval.append_mpairs_per_s", "M/s", higher, paper},
		{"keyval.bucket_mpairs_per_s", "M/s", higher, paper},
		{"mph.build_kwords_per_s", "k/s", higher, paper},
		{"mph.lookup_mops_per_s", "M/s", higher, paper},
		{"workload.text_mb_per_s", "MB/s", higher, paper},
		{"workload.points_melems_per_s", "M/s", higher, paper},
		{"workload.sparseints_melems_per_s", "M/s", higher, paper},
	}
	for _, a := range probeApps {
		l = append(l,
			layerDef{"apps." + a + ".build_ms", "ms", lower, paper + "; ops_per_s on gpmrd_submit"},
			layerDef{"core." + a + ".run_ms", "ms", lower, paper + "; ops_per_s on gpmrd_submit"},
			layerDef{"core." + a + ".alloc_mb", "MB", lower, "peak_rss_mb on paper_eval"},
		)
	}
	l = append(l,
		layerDef{"core.kmc.run_pool_ratio", "ratio", lower, paper},
		layerDef{"core.failstop.run_ms", "ms", lower, paper},
		layerDef{"core.noop.run_us", "us", lower, stream},
		layerDef{"core.noop.allocs_per_job", "count", lower, stream},

		layerDef{"sched.stream_jobs_per_s.shards0", "1/s", higher, stream},
		layerDef{"sched.stream_jobs_per_s.shards1", "1/s", higher, stream},
		layerDef{"sched.stream_jobs_per_s.pernode", "1/s", higher, stream},
		layerDef{"sched.stream_jobs_per_s.pool", "1/s", higher, stream},
		layerDef{"sched.burst_jobs_per_s.fifo", "1/s", higher, burst},
		layerDef{"sched.burst_jobs_per_s.fixedshare", "1/s", higher, burst},
		layerDef{"sched.burst_jobs_per_s.weightedfair", "1/s", higher, burst},
		layerDef{"sched.burst_jobs_per_s.reserve", "1/s", higher, burst},
		layerDef{"sched.allocs_per_job", "count", lower, stream},
		layerDef{"sched.trace_string_ms", "ms", lower, "wall_s on sched_stream"},

		layerDef{"serve.build_us.wo", "us", lower, accept},
		layerDef{"serve.build_us.kmc", "us", lower, accept},
		layerDef{"serve.build_us.sio", "us", lower, accept},
		layerDef{"serve.submit_us_p50", "us", lower, accept},
		layerDef{"serve.submit_us_p95", "us", lower, accept},
		layerDef{"serve.http.post_us_p50", "us", lower, accept},
		layerDef{"serve.replay_jobs_per_s", "1/s", higher, "wall_s on paper_eval"},
		layerDef{"serve.readtrace_mb_per_s", "MB/s", higher, "wall_s on paper_eval"},
		layerDef{"serve.http.get_job_us_p50", "us", lower, reads},
		layerDef{"serve.http.explain_ms_p50", "ms", lower, reads},
		layerDef{"serve.http.timeline_ms_p50", "ms", lower, reads},
		layerDef{"serve.http.list_ms_p50", "ms", lower, reads},
		layerDef{"serve.http.flight_ms", "ms", lower, reads},
		layerDef{"serve.http.metrics_us_p50", "us", lower, reads},
		layerDef{"serve.drain_ms", "ms", lower, "none (teardown, outside every timed window)"},

		layerDef{"fleet.ring_picks_per_s", "1/s", higher, fleetM},
		layerDef{"fleet.submit_hop_us_p50", "us", lower, fleetM},
		layerDef{"fleet.proxy_explain_ms_p50", "ms", lower, fleetM},
		layerDef{"fleet.merge_ms", "ms", lower, "none (drain report, outside every timed window)"},
		layerDef{"fleet.replaydir_jobs_per_s", "1/s", higher, "wall_s on paper_eval"},
		layerDef{"fleet.stitch_ms", "ms", lower, "none (offline timeline)"},

		layerDef{"obs.record_mevents_per_s", "M/s", higher, gsub},
		layerDef{"obs.bytes_per_event", "B", lower, gsub},
		layerDef{"obs.overhead_ratio", "ratio", lower, gsub},
		layerDef{"obs.canonical_ms_per_100k", "ms", lower, reads},
		layerDef{"obs.explain_ms_per_100k", "ms", lower, reads},
		layerDef{"obs.chrome_ms_per_100k", "ms", lower, reads},
		layerDef{"obs.jsonl_ms_per_100k", "ms", lower, reads},
	)
	for _, e := range benchExperiments {
		l = append(l, layerDef{"bench." + e + "_s", "s", lower, "wall_s on paper_eval"})
	}
	l = append(l,
		layerDef{"loadgen.late_ms_p95", "ms", lower, "none (generator health: above 1 ms the run is unresolved)"},
		layerDef{"loadgen.cpu_s", "s", lower, "none (generator cost, reported beside the serving numbers)"},
		layerDef{"gpmrd.rss_kb_per_job", "KB", lower, "peak_rss_mb on gpmrd_submit"},
		layerDef{"gpmrd.gc_pause_ms", "ms", lower, "done_p95_ms on gpmrd_submit"},
		layerDef{"gpmrd.accept_p50_ms", "ms", lower, "accept_p95_ms on gpmrd_submit (demoted: it does not repeat within a tenth)"},
		layerDef{"gpmrd.accept_p99_ms", "ms", lower, "accept_p95_ms on gpmrd_submit"},
		layerDef{"gpmrd.done_p99_ms", "ms", lower, "done_p95_ms on gpmrd_submit"},
		layerDef{"gpmrd.slo_rate_jobs_per_s", "1/s", higher, "done_p95_ms on gpmrd_submit"},
		layerDef{"fleet.router_cpu_s", "s", lower, "cpu_s on fleet_submit"},
		layerDef{"fleet.accept_p50_ms", "ms", lower, "accept_p95_ms on fleet_submit (demoted: it does not repeat within a tenth)"},
		layerDef{"fleet.done_p99_ms", "ms", lower, "done_p95_ms on fleet_submit"},
		layerDef{"fleet.slo_rate_jobs_per_s", "1/s", higher, "done_p95_ms on fleet_submit"},
		layerDef{"harness.trace_overhead", "ratio", lower, "none (traced over untraced result of this run's workload)"},
		layerDef{"harness.spans", "count", higher, "none (spans recorded by the traced run)"},
	)
	return l
}
