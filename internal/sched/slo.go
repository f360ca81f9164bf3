package sched

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/obs"
)

// This file is the SLO side of the scheduler: cost-model admission
// (predict-and-reject at arrival), the EASY backfill reservation for a
// blocked queue head, checkpoint-preemption of running gangs for higher
// classes, and elastic grow-back of molded gangs. Every job answers the
// two questions these paths ask of it — core.Runnable's EstimateCost (the
// cost model) and PreemptLaunch (the chunk-boundary checkpoint) — every
// path sizes a job by the policy's one gang rule (gangRange), and the
// reservation walk always yields a start, so each behaviour has one code
// path. Everything here is opt-in — with zero-valued Policy and JobSpec
// SLO fields none of these paths run, and the scheduler behaves
// byte-for-byte as before.

// gangEst is one remembered answer of the cost model.
type gangEst struct {
	gang int
	est  des.Time
}

// estimate asks the cost model (core.Runnable.EstimateCost) for rec's
// service time on a gang of the given size. The model is a pure function
// of the job, the hardware and the gang size that re-walks every chunk,
// so each (job, gang size) is asked once and remembered; a job nobody
// prices — no Reserve, no deadline, no Retry-After hint — is never asked.
func (s *Scheduler) estimate(rec *jobRec, gang int) des.Time {
	for _, e := range rec.ests {
		if e.gang == gang {
			return e.est
		}
	}
	est := rec.job.EstimateCost(s.cl, gang)
	rec.ests = append(rec.ests, gangEst{gang, est})
	return est
}

// reserveStart predicts when `need` ranks will be idle, by walking the
// running jobs' predicted completions (admit + estimate for the granted
// gang, clamped to now when a job overruns its estimate) in end order
// and accumulating their leases onto the current idle set. The walk
// always yields a start: every rank is idle or leased by a running job,
// so after the last release the whole machine is idle, and no gang's
// need exceeds it (validateSpec caps Want, Policy.Validate caps Share).
func (s *Scheduler) reserveStart(need int) des.Time {
	now := s.eng.Now()
	avail := s.nFree
	if avail >= need {
		return now
	}
	type release struct {
		at    des.Time
		ranks int
	}
	var ends []release
	for _, r := range s.running {
		at := r.Admit + s.estimate(r, len(r.Gang))
		if at < now {
			// Overdue estimate: the job could finish at any moment, so the
			// reservation is "now" — conservative for backfill, which then
			// cannot slip anything ahead of the head.
			at = now
		}
		ends = append(ends, release{at, len(r.leased)})
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].at < ends[j].at })
	for _, e := range ends {
		avail += e.ranks
		if avail >= need {
			return e.at
		}
	}
	panic(fmt.Sprintf("sched: reserving %d ranks, %d idle once every lease is released (lease invariant broken)", need, avail))
}

// predictLatency is the admission-time SLO check: predicted start (the
// reservation walk over running gangs, plus the machine share of every
// queued job that will be served first) plus the cost-model service time
// on the gang rec wants. Queued jobs at or above rec's class precede it
// in the class-ordered queue; charging each est(want)·need/ranks is exact
// serialization under FIFOExclusive and a work-conserving approximation
// under the sharing policies. It still ignores future arrivals — it is
// an advisory admission filter, not a simulation; the serve layer
// reports actual attainment.
func (s *Scheduler) predictLatency(rec *jobRec) des.Time {
	need, want := s.gangRange(rec)
	var wait des.Time
	if len(s.queue) > 0 || s.nFree < need {
		wait = s.reserveStart(need) - s.eng.Now()
		ranks := des.Time(s.cl.Ranks())
		for _, q := range s.queue {
			if q.Class < rec.Class {
				continue
			}
			qNeed, qWant := s.gangRange(q)
			wait += s.estimate(q, qWant) * des.Time(qNeed) / ranks
		}
	}
	return wait + s.estimate(rec, want)
}

// preemptFor checkpoints enough running lower-class gangs to fit the
// blocked head, returning true when victims are (or already were)
// draining — the caller must then hold all admission until their requeue
// re-runs it. Victims are chosen lowest class first, then the most
// recently started (least work lost), then highest ID. Returns false
// when the head's class outranks nothing useful, or when even preempting
// every candidate would not free enough ranks.
func (s *Scheduler) preemptFor(head *jobRec) bool {
	need, _ := s.gangRange(head)
	avail := s.nFree
	draining := false
	for _, r := range s.running {
		if r.quiescing {
			avail += len(r.leased)
			draining = true
		}
	}
	if avail >= need {
		return draining
	}
	var cands []*jobRec
	for _, r := range s.running {
		if r.quiescing || r.Class >= head.Class {
			continue
		}
		cands = append(cands, r)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Admit != b.Admit {
			return a.Admit > b.Admit
		}
		return a.ID > b.ID
	})
	var victims []*jobRec
	for _, v := range cands {
		if avail >= need {
			break
		}
		victims = append(victims, v)
		avail += len(v.leased)
	}
	if avail < need {
		return false
	}
	for _, v := range victims {
		s.quiesce(v, false)
	}
	return true
}

// growBack finds one running WeightedFair gang worth re-expanding: the
// job opted in (JobSpec.Elastic), was molded below its request, and the
// now-idle ranks plus its own would at least double it (capped at its
// fair share). It is checkpointed like a preemption victim; floorGang
// forces the relaunch strictly wider. One grow per admission pass keeps
// the churn bounded: the first match in job-ID order, which is the order
// s.running keeps. Only called with an empty queue — growing must never
// starve waiting jobs.
func (s *Scheduler) growBack() {
	if s.pol.Kind != WeightedFair {
		return
	}
	for _, r := range s.running {
		if r.quiescing || !r.elastic {
			continue
		}
		cur := len(r.Gang)
		if cur >= r.Want {
			continue
		}
		target := s.fairShare(r)
		if avail := s.nFree + len(r.leased); target > avail {
			target = avail
		}
		if target < 2*cur {
			continue
		}
		r.growPending = true
		s.quiesce(r, false)
		return
	}
}

// quiesce asks rec's running launch to checkpoint-preempt: stop issuing
// chunks and drain at the next chunk boundary. The launch then completes
// with a Preempted trace and finish routes it to requeue. In sharded
// mode the stop must execute on the gang's home engine — the launch's
// core scheduler is engine-confined — so it travels the same hub->home
// post edge as the launch itself. Callers pass a running job that is not
// already quiescing.
func (s *Scheduler) quiesce(rec *jobRec, cancel bool) {
	rec.quiescing = true
	rec.qCancel = cancel
	if r := s.cl.Obs; r.Enabled() {
		why := "class"
		switch {
		case cancel:
			why = "cancel"
		case rec.growPending:
			why = "grow"
		}
		r.Emit(int64(s.eng.Now()), obs.CatSim, "sched/"+rec.Name, "preempt", obs.A("why", why))
	}
	if s.ss != nil {
		home := s.homeOf(rec.Gang)
		s.ss.Post(s.eng, home, hubKey, s.launchLat, rec.Name+".preempt", func(q *des.Proc) {
			rec.job.PreemptLaunch()
		})
	} else {
		rec.job.PreemptLaunch()
	}
}

// requeue handles a launch that drained early because quiesce asked it
// to: the partial output is discarded, the lease is released, and the
// job either re-enters the queue for a deterministic restart from
// scratch (preemption and grow-back — the original arrival time is
// kept, so waiting-time stats charge the preemption honestly) or is
// torn down (PreemptCancel).
func (s *Scheduler) requeue(rec *jobRec) {
	cancel, grow, oldSize := rec.qCancel, rec.growPending, len(rec.Gang)
	rec.quiescing, rec.qCancel, rec.growPending = false, false, false
	s.setState(rec, !cancel, false)
	s.releaseRanks(rec)
	rec.Gang, rec.leased = nil, nil
	if r := s.cl.Obs; r.Enabled() {
		kind := "requeue"
		if cancel {
			kind = "preempt.cancel"
		}
		r.Emit(int64(s.eng.Now()), obs.CatSim, "sched/"+rec.Name, kind)
	}
	if cancel {
		rec.cancelled = true
		rec.Finish = s.eng.Now()
		if s.OnRequeue != nil {
			s.OnRequeue(rec.ID, true)
		}
		return
	}
	if grow {
		rec.floorGang = oldSize + 1
	}
	rec.Preempts++
	if s.OnRequeue != nil {
		s.OnRequeue(rec.ID, false)
	}
	s.enqueue(rec)
}

// PreemptCancel withdraws a RUNNING job by checkpoint-preempting it and
// discarding the drained launch — the counterpart of Cancel (which only
// reaches queued jobs). The gang frees at the job's next chunk boundary,
// not instantly; OnRequeue(id, true) fires when it does, and no OnDone
// follows. Reports false when the job is not running or is already
// quiescing. Must be called at engine time.
func (s *Scheduler) PreemptCancel(id int) bool {
	if id < 0 || id >= len(s.recs) {
		return false
	}
	rec := s.recs[id]
	if !rec.running || rec.quiescing {
		return false
	}
	s.quiesce(rec, true)
	return true
}

// QueuedCost sums the cost-model estimates of every queued job on the
// gang it wants — the serve layer's Retry-After drain hint. Must be
// called at engine time.
func (s *Scheduler) QueuedCost() des.Time {
	var t des.Time
	for _, rec := range s.queue {
		_, want := s.gangRange(rec)
		t += s.estimate(rec, want)
	}
	return t
}
