package bench

import (
	"fmt"
	"io"

	"repro/internal/des"
	"repro/internal/serve"
)

// The open-system experiment: where multijob replays one fixed batch,
// this sweeps OFFERED LOAD against the online serving layer — the same
// seeded job mix arriving faster and faster, with a bounded admission
// queue and per-tenant quotas — and reports what an open system actually
// trades: tail latency against reject/shed rate, per policy. Every run
// goes through serve's deterministic replay path (no wall clock), so the
// table is bit-identical across runs and hosts.

// OnlineGPUs is the shared cluster for the open-system sweep.
const OnlineGPUs = 16

// OnlineJobs is the arrival-stream length per load point.
const OnlineJobs = 16

// OnlineMaxQueue bounds the admission queue: load beyond what the
// cluster absorbs turns into sheds, not unbounded queueing.
const OnlineMaxQueue = 4

// OnlineQuota caps any one tenant's in-flight jobs.
const OnlineQuota = 3

// onlineGapsMs are the mean inter-arrival gaps swept, loosest to
// tightest (offered load rises left to right in the report).
var onlineGapsMs = []float64{16, 8, 4}

// onlineTenants cycle through the stream's submissions.
var onlineTenants = []string{"ana", "bo", "cy"}

// onlineStream builds the seeded arrival stream for one load point as a
// recorded trace body: the multijob kind mix, tenants round-robin. A pure
// function of (options, gap), so every policy at a given load sees
// byte-identical arrivals.
func onlineStream(o Options, gapMs float64) []serve.Event {
	return arrivalEvents(o, 0x517cc1b7, OnlineJobs, gapMs, jobMix, onlineTenants)
}

// OnlineRow is one (load, policy) cell of the sweep.
type OnlineRow struct {
	GapMs    float64
	Policy   string
	Jobs     int
	Admitted int64
	Shed     int64
	Quota    int64
	Rejected float64 // reject fraction of offered jobs
	P50      des.Time
	P95      des.Time
	MeanWait des.Time
	Makespan des.Time
}

// Online sweeps offered load × admission policy through the online
// serving layer's replay path and reports per-cell latency percentiles
// (over admitted jobs) and reject rates.
func Online(o Options) ([]OnlineRow, error) {
	o = o.withDefaults()
	var rows []OnlineRow
	for _, gap := range onlineGapsMs {
		evs := onlineStream(o, gap)
		for _, pol := range multijobPolicies() {
			rep, err := o.replayCell(fmt.Sprintf("%.0fms/%s/", gap, pol.Kind), serve.Header{
				Policy:   pol.Kind.String(),
				Share:    pol.Share,
				GPUs:     OnlineGPUs,
				MaxQueue: OnlineMaxQueue,
				Quota:    OnlineQuota,
			}, evs)
			if err != nil {
				return nil, fmt.Errorf("online: gap %.0fms policy %s: %w", gap, pol.Kind, err)
			}
			s := rep.Stats
			rows = append(rows, OnlineRow{
				GapMs:    gap,
				Policy:   pol.Kind.String(),
				Jobs:     OnlineJobs,
				Admitted: s.Admitted,
				Shed:     s.RejectedShed,
				Quota:    s.RejectedQuota,
				Rejected: float64(s.RejectedShed+s.RejectedQuota+s.RejectedInvalid) / float64(OnlineJobs),
				P50:      rep.Cluster.LatencyPercentile(50, nil),
				P95:      rep.Cluster.LatencyPercentile(95, nil),
				MeanWait: rep.Cluster.MeanWait(),
				Makespan: rep.Cluster.Makespan,
			})
		}
	}
	return rows, nil
}

// RenderOnline writes the offered-load sweep.
func RenderOnline(w io.Writer, rows []OnlineRow) {
	fmt.Fprintf(w, "Open-system serving — %d-job streams on %d shared GPUs, queue bound %d, tenant quota %d\n",
		OnlineJobs, OnlineGPUs, OnlineMaxQueue, OnlineQuota)
	fmt.Fprintf(w, "%8s %-15s %5s %5s %6s %7s %12s %12s %12s\n",
		"gap", "policy", "admit", "shed", "quota", "rej%", "p50 lat", "p95 lat", "mean wait")
	for i, r := range rows {
		if i > 0 && r.GapMs != rows[i-1].GapMs {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%6.0fms %-15s %5d %5d %6d %6.1f%% %12v %12v %12v\n",
			r.GapMs, r.Policy, r.Admitted, r.Shed, r.Quota, 100*r.Rejected, r.P50, r.P95, r.MeanWait)
	}
}
