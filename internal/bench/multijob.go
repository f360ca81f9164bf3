package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/sched"
	"repro/internal/serve"
)

// MultijobGPUs is the shared cluster for the multi-tenant scenario: 16
// ranks packed four per node — four S1070 nodes serving a stream of jobs.
const MultijobGPUs = 16

// MultijobSmallWant is the gang-size threshold below or at which a job
// counts as "small" for the tail-latency comparison.
const MultijobSmallWant = 4

// MultijobJobs is the length of the arrival stream.
const MultijobJobs = 12

// multijobPolicies are the admission policies the experiment compares.
func multijobPolicies() []sched.Policy {
	return []sched.Policy{
		{Kind: sched.FIFOExclusive},
		{Kind: sched.FixedShare, Share: 4},
		{Kind: sched.WeightedFair},
	}
}

// multijobTags name the stream's jobs by mix entry: kind and size class.
var multijobTags = []string{"wo-s", "kmc-s", "sio-m", "sio-l"}

// multijobStream builds the arrival stream as scheduler submissions. Mean
// inter-arrival is a fraction of a typical small job's service time, so
// the queue actually builds and policies differ. Jobs are built by the
// serving layer's catalog — a scheduled wo/kmc/sio job is constructed one
// way everywhere — with the harness's WO dictionary passed explicitly.
func multijobStream(o Options) ([]sched.JobSpec, error) {
	catalog := serve.DefaultCatalog(o.PhysBudget)
	var specs []sched.JobSpec
	for i, a := range arrivals(o, 0x9e3779b9, MultijobJobs, 8, jobMix) {
		if a.Kind == "wo" {
			a.Params["dict"] = int64(woDict(o))
		}
		job, err := catalog.Build(a.Kind, fmt.Sprintf("%s%d", multijobTags[a.kind], i), a.Params)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sched.JobSpec{At: a.At, Job: job})
	}
	return specs, nil
}

// MultijobRow summarizes one policy's run over the shared stream.
type MultijobRow struct {
	Policy     string
	Jobs       int
	Makespan   des.Time
	Throughput float64 // jobs per simulated second
	P50        des.Time
	P95        des.Time
	P95Small   des.Time // tail latency of jobs wanting <= MultijobSmallWant ranks
	MeanWait   des.Time
	Jain       float64
	WireBytes  int64
}

// Multijob runs the same seeded arrival stream under each admission policy
// on one shared 16-rank cluster and reports per-policy throughput, latency
// percentiles, queue wait, and Jain's fairness index. The returned traces
// parallel the rows (for golden-trace diffing and deeper inspection).
func Multijob(o Options) ([]MultijobRow, []*sched.ClusterTrace, error) {
	o = o.withDefaults()
	cc := cluster.DefaultConfig(MultijobGPUs)
	// The shared machine's kernel-execution backend: with a pool, kernels
	// from co-resident tenants occupy real host cores concurrently.
	cc.Workers = o.Workers
	cc.Obs = o.Obs
	var rows []MultijobRow
	var traces []*sched.ClusterTrace
	defer o.Obs.SetPrefix("")
	for _, pol := range multijobPolicies() {
		specs, err := multijobStream(o)
		if err != nil {
			return nil, nil, err
		}
		// Each policy replays the same stream on a fresh cluster; prefix
		// its flight-recorder streams so the three runs stay distinct in
		// one trace file.
		o.Obs.SetPrefix(pol.Kind.String() + "/")
		ct, err := sched.Run(cc, pol, specs)
		if err != nil {
			return nil, nil, err
		}
		small := func(j *sched.JobTrace) bool { return j.Want <= MultijobSmallWant }
		rows = append(rows, MultijobRow{
			Policy:     pol.Kind.String(),
			Jobs:       len(ct.Jobs),
			Makespan:   ct.Makespan,
			Throughput: ct.Throughput(),
			P50:        ct.LatencyPercentile(50, nil),
			P95:        ct.LatencyPercentile(95, nil),
			P95Small:   ct.LatencyPercentile(95, small),
			MeanWait:   ct.MeanWait(),
			Jain:       ct.Jain(),
			WireBytes:  ct.WireBytes(),
		})
		traces = append(traces, ct)
	}
	return rows, traces, nil
}

// RenderMultijob writes the policy comparison and each run's job table.
func RenderMultijob(w io.Writer, rows []MultijobRow, traces []*sched.ClusterTrace) {
	fmt.Fprintf(w, "Multi-tenant scheduling — %d-job mixed stream on %d shared GPUs (4 per node)\n",
		MultijobJobs, MultijobGPUs)
	fmt.Fprintf(w, "%-15s %12s %9s %12s %12s %12s %12s %6s %9s\n",
		"policy", "makespan", "jobs/s", "p50 lat", "p95 lat", "p95 small", "mean wait", "jain", "wire MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %12v %9.2f %12v %12v %12v %12v %6.3f %9.1f\n",
			r.Policy, r.Makespan, r.Throughput, r.P50, r.P95, r.P95Small, r.MeanWait,
			r.Jain, float64(r.WireBytes)/1e6)
	}
	for _, ct := range traces {
		fmt.Fprintln(w)
		fmt.Fprint(w, ct.String())
	}
}
