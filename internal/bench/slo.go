package bench

import (
	"fmt"
	"io"

	"repro/internal/des"
	"repro/internal/sched"
	"repro/internal/serve"
)

// The SLO experiment: the online sweep's open system, but with the
// arrival stream split into service classes — interactive queries under
// tight deadlines, standard analytics that would rather be demoted than
// turned away, and elastic batch scans with no deadline at all — run
// once under plain weighted-fair and once with the SLO machinery
// (EASY reservation, class preemption, elastic grow-back) switched on.
// Both cells see byte-identical arrivals, so the table isolates what the
// scheduling upgrades buy: deadline attainment per class against the
// shed/reject rate. Every run goes through serve's deterministic replay
// path, so the table is bit-identical across runs.

// SLOGPUs is the shared cluster for the SLO sweep.
const SLOGPUs = 16

// SLOJobs is the arrival-stream length per load point.
const SLOJobs = 18

// SLOMaxQueue bounds the admission queue.
const SLOMaxQueue = 12

// sloGapsMs are the mean inter-arrival gaps swept, loosest to tightest.
var sloGapsMs = []float64{8, 4, 2}

// sloDeadlines per class, relative to arrival.
const (
	sloInteractiveDeadline = 25 * des.Millisecond
	sloStandardDeadline    = 60 * des.Millisecond
)

// sloMix is the kind mix split into service classes, the batch scans
// grown heavier so they are worth preempting.
func sloMix() []serve.Request {
	// Interactive query: small, tight deadline, reject on a predicted
	// miss (the user would rather know immediately). Rigid: a latency
	// query cannot mold down.
	query := jobMix[0]
	query.MinGang, query.Class, query.Deadline = 2, "interactive", sloInteractiveDeadline
	// Standard analytics: moderate deadline, demoted to batch on a
	// predicted miss rather than turned away.
	analytics := withParams(jobMix[1], serve.Params{"gpus": 4})
	analytics.MinGang, analytics.Class, analytics.Deadline, analytics.Downgrade = 4, "standard", sloStandardDeadline, true
	// Batch scans: no deadline, mold down under load and opt into elastic
	// grow-back.
	scan := withParams(jobMix[2], serve.Params{"elements": 64 << 20, "gpus": 8})
	scan.Class, scan.Elastic = "batch", true
	large := withParams(jobMix[3], serve.Params{"elements": 128 << 20})
	large.Class, large.Elastic = "batch", true
	return []serve.Request{query, analytics, scan, large}
}

// sloConfigs are the cells compared at each load point: exclusive FIFO
// (where the admission predictor sees the whole machine's drain ahead of
// every job, so infeasible deadlines are rejected or downgraded at
// arrival), plain weighted-fair, and weighted-fair with the SLO
// scheduling upgrades.
func sloConfigs() []sloConfig {
	return []sloConfig{
		{"fifo-exclusive", serve.Header{Policy: "fifo-exclusive"}},
		{"weighted-fair", serve.Header{Policy: "weighted-fair"}},
		{"weighted-fair+slo", serve.Header{Policy: "weighted-fair", Reserve: true, Preempt: true}},
	}
}

type sloConfig struct {
	name string
	serve.Header
}

// SLORow is one (load, config) cell of the sweep.
type SLORow struct {
	GapMs  float64
	Config string

	Admitted   int64
	Shed       int64 // queue-full sheds
	SLORej     int64 // predicted-miss rejects (interactive)
	Downgraded int64 // predicted-miss demotions (standard)
	Preempts   int64 // checkpoint-restarts across the run

	IntMet, IntJobs int64 // interactive deadline attainment
	StdMet, StdJobs int64 // standard deadline attainment
	BatchDone       int64

	P95Int   des.Time // p95 latency over interactive completions
	Makespan des.Time
}

// SLO sweeps offered load × SLO configuration through the serving
// layer's replay path and reports per-class deadline attainment and
// shed/reject rates.
func SLO(o Options) ([]SLORow, error) {
	o = o.withDefaults()
	var rows []SLORow
	for _, gap := range sloGapsMs {
		// Every cell at a load point replays the same arrivals.
		evs := arrivalEvents(o, 0x2545f491, SLOJobs, gap, sloMix(), onlineTenants)
		for _, cfg := range sloConfigs() {
			cfg.GPUs, cfg.MaxQueue = SLOGPUs, SLOMaxQueue
			rep, err := o.replayCell(fmt.Sprintf("%.0fms/%s/", gap, cfg.name), cfg.Header, evs)
			if err != nil {
				return nil, fmt.Errorf("slo: gap %.0fms config %s: %w", gap, cfg.name, err)
			}
			s := rep.Stats
			row := SLORow{
				GapMs:    gap,
				Config:   cfg.name,
				Admitted: s.Admitted,
				Shed:     s.RejectedShed,
				SLORej:   s.RejectedSLO,
				Makespan: rep.Cluster.Makespan,
			}
			if cs := s.Classes["interactive"]; cs != nil {
				row.IntMet, row.IntJobs = cs.Met, cs.Met+cs.Missed
			}
			if cs := s.Classes["standard"]; cs != nil {
				row.StdMet, row.StdJobs = cs.Met, cs.Met+cs.Missed
			}
			if cs := s.Classes["batch"]; cs != nil {
				row.BatchDone = cs.Done
			}
			for i := range rep.Jobs {
				if rep.Jobs[i].Downgraded {
					row.Downgraded++
				}
			}
			for i := range rep.Cluster.Jobs {
				row.Preempts += int64(rep.Cluster.Jobs[i].Preempts)
			}
			row.P95Int = rep.Cluster.LatencyPercentile(95, func(j *sched.JobTrace) bool {
				return j.Class == sched.Interactive
			})
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderSLO writes the SLO sweep.
func RenderSLO(w io.Writer, rows []SLORow) {
	fmt.Fprintf(w, "SLO scheduling — %d-job three-class streams on %d shared GPUs, queue bound %d\n",
		SLOJobs, SLOGPUs, SLOMaxQueue)
	fmt.Fprintf(w, "deadlines: interactive %v (reject on predicted miss), standard %v (downgrade), batch none (elastic)\n",
		sloInteractiveDeadline, sloStandardDeadline)
	fmt.Fprintf(w, "%8s %-18s %5s %5s %4s %4s %5s %7s %7s %6s %12s\n",
		"gap", "config", "admit", "shed", "rej", "down", "preem", "int met", "std met", "batch", "p95 int")
	for i, r := range rows {
		if i > 0 && r.GapMs != rows[i-1].GapMs {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%6.0fms %-18s %5d %5d %4d %4d %5d %3d/%-3d %3d/%-3d %6d %12v\n",
			r.GapMs, r.Config, r.Admitted, r.Shed, r.SLORej, r.Downgraded, r.Preempts,
			r.IntMet, r.IntJobs, r.StdMet, r.StdJobs, r.BatchDone, r.P95Int)
	}
}
