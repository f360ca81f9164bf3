package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sched"
)

// TestStatsMatchJobTable recomputes every counter and gauge the session
// keeps from its job table, after every scheduler hook and every arrival
// or cancel, over a stream that takes each admission and lifecycle path:
// shed, quota, invalid (class, kind and scheduler refusal), SLO reject,
// downgrade, queued cancel, preempt-cancel, class preemption and
// grow-back. The stream is driven the way replay drives a trace, from
// one simulated process.
func TestStatsMatchJobTable(t *testing.T) {
	ms := des.Millisecond
	sio := func(elements, gpus int64) Params {
		return Params{"elements": elements, "gpus": gpus, "seed": int64(1), "chunkcap": 1 << 20}
	}
	classed := func(e Event, class string, deadline des.Time, downgrade, elastic bool) Event {
		a := *e.Arrive
		a.Class, a.Deadline, a.Downgrade, a.Elastic = class, deadline, downgrade, elastic
		return Event{Arrive: &a}
	}
	evs := []Event{
		arr(0, 0, "a", "sio", sio(8<<20, 4)),                                               // runs on half the machine
		classed(arr(1, 1*ms, "b", "sio", sio(32<<20, 8)), "batch", 0, false, true),         // molded to 4, grows back later
		arr(2, 2*ms, "c", "sio", sio(8<<20, 4)),                                            // queued
		arr(3, 3*ms, "c", "sio", sio(8<<20, 4)),                                            // quota: c has a job in flight
		arr(4, 4*ms, "d", "sio", sio(8<<20, 4)),                                            // queued
		arr(5, 5*ms, "e", "sio", sio(8<<20, 4)),                                            // shed: the queue is full
		{Cancel: &Cancel{Seq: 4, At: 6 * ms}},                                              // queued cancel
		classed(arr(6, 7*ms, "d", "sio", sio(8<<20, 4)), "bogus", 0, false, false),         // invalid class
		arr(7, 8*ms, "d", "nope", nil),                                                     // invalid kind
		arr(8, 9*ms, "d", "sio", sio(8<<20, 16)),                                           // scheduler refuses: 16 ranks
		classed(arr(9, 10*ms, "e", "sio", sio(8<<20, 4)), "interactive", 1, false, false),  // SLO reject
		classed(arr(10, 11*ms, "f", "sio", sio(8<<20, 4)), "interactive", 0, false, false), // preempts a batch gang
		{Cancel: &Cancel{Seq: 0, At: 13 * ms}},                                             // preempt-cancel
		classed(arr(11, 20*ms, "e", "sio", sio(8<<20, 4)), "standard", 1, true, false),     // downgraded to batch
	}

	ses, err := newSession(Config{
		Cluster:  cluster.DefaultConfig(8),
		Policy:   sched.Policy{Kind: sched.WeightedFair, Reserve: true, Preempt: true},
		Catalog:  testCatalog(),
		MaxQueue: 2,
		Quota:    1,
	}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer ses.sch.Close()

	arriving := -1 // the job inside arrive's scheduler call, if any
	check := func(when string) {
		if t.Failed() {
			return
		}
		if msg := statsMismatch(ses, arriving); msg != "" {
			t.Errorf("after %s: %s", when, msg)
		}
	}
	starts := map[int][]int{} // serve ID -> granted gang sizes, in launch order
	requeues := 0
	onStart, onDone, onRequeue := ses.sch.OnStart, ses.sch.OnDone, ses.sch.OnRequeue
	ses.sch.OnStart = func(id int, gang []int) {
		onStart(id, gang)
		starts[ses.serveOf[id]] = append(starts[ses.serveOf[id]], len(gang))
		check(fmt.Sprintf("start of job %d", ses.serveOf[id]))
	}
	ses.sch.OnDone = func(id int, job core.Runnable, tr *core.Trace, err error) {
		onDone(id, job, tr, err)
		check(fmt.Sprintf("done of job %d", ses.serveOf[id]))
	}
	ses.sch.OnRequeue = func(id int, cancelled bool) {
		onRequeue(id, cancelled)
		if !cancelled {
			requeues++
		}
		check(fmt.Sprintf("requeue of job %d (cancelled %v)", ses.serveOf[id], cancelled))
	}
	ses.eng.Spawn("stream", func(p *des.Proc) {
		for _, ev := range evs {
			p.SleepLate(ev.at() - p.Now())
			if a := ev.Arrive; a != nil {
				arriving = a.Seq
				ses.arrive(p.Now(), a.Request)
				arriving = -1
				check(fmt.Sprintf("arrival %d", a.Seq))
			} else {
				ses.cancel(p.Now(), ev.Cancel.Seq)
				check(fmt.Sprintf("cancel of job %d", ev.Cancel.Seq))
			}
		}
	})
	ses.sch.Run()
	check("drain")

	// Every path the stream is built to take was taken.
	wantStates := map[int]State{0: Cancelled, 1: Done, 2: Done, 3: Rejected, 4: Cancelled, 5: Rejected,
		6: Rejected, 7: Rejected, 8: Rejected, 9: Rejected, 10: Done, 11: Done}
	for id, want := range wantStates {
		if got := ses.jobs[id].State; got != want {
			t.Errorf("job %d ended %v, want %v (%s)", id, got, want, ses.jobs[id].Reason)
		}
	}
	if st := ses.stats; st.RejectedShed != 1 || st.RejectedQuota != 1 || st.RejectedInvalid != 3 || st.RejectedSLO != 1 {
		t.Errorf("rejects: shed %d quota %d invalid %d slo %d, want 1 1 3 1",
			st.RejectedShed, st.RejectedQuota, st.RejectedInvalid, st.RejectedSLO)
	}
	if len(starts[0]) == 0 || len(starts[4]) != 0 {
		t.Errorf("job 0 must be cancelled running and job 4 queued: starts %v and %v", starts[0], starts[4])
	}
	if !ses.jobs[11].Downgraded {
		t.Error("job 11 was not downgraded")
	}
	// Job 1 is checkpointed twice: for the interactive job 10, then to grow.
	if g := starts[1]; requeues != 2 || len(g) != 3 || g[2] <= g[1] {
		t.Errorf("job 1 gangs %v over %d requeues, want a preemption and then a wider relaunch", g, requeues)
	}
}

// statsMismatch recomputes the session's counters, gauges and in-flight
// counts from its job table and names the first that differs. arriving is
// the serve ID of a job whose arrive is still inside the scheduler call,
// or -1: the scheduler has accepted that job, but arrive counts it
// admitted only once the call returns.
func statsMismatch(ses *session, arriving int) string {
	ses.mu.Lock()
	defer ses.mu.Unlock()
	var want Stats
	want.Tenants = map[string]*TenantStats{}
	classes := map[string]*ClassStats{}
	inflight := map[string]int{}
	var waits, services int64
	for _, j := range ses.jobs {
		ts := want.Tenants[j.Tenant]
		if ts == nil {
			ts = &TenantStats{}
			want.Tenants[j.Tenant] = ts
		}
		var cs *ClassStats
		if j.Class != "" {
			if cs = classes[j.Class]; cs == nil {
				cs = &ClassStats{}
				classes[j.Class] = cs
			}
			cs.Submitted++
		}
		want.Submitted++
		ts.Submitted++
		if j.State != Rejected && j.ID != arriving {
			want.Admitted++
			ts.Admitted++
		}
		if j.Status != j.State.String() {
			return fmt.Sprintf("job %d: Status %q, State %v", j.ID, j.Status, j.State)
		}
		switch j.State {
		case Rejected:
			ts.Rejected++
			switch {
			case strings.HasPrefix(j.Reason, "shed:"):
				want.RejectedShed++
			case strings.HasPrefix(j.Reason, "quota:"):
				want.RejectedQuota++
			case strings.HasPrefix(j.Reason, "slo:"):
				want.RejectedSLO++
				if cs != nil {
					cs.Rejected++
				}
			default:
				want.RejectedInvalid++
			}
		case Queued:
			want.Queued++
			inflight[j.Tenant]++
		case Running:
			want.Running++
			inflight[j.Tenant]++
		case Cancelled:
			want.Cancelled++
		case Failed, Done:
			want.WaitTotal += j.Admit - j.Arrival
			want.ServiceTotal += j.Finish - j.Admit
			waits++
			services++
			if j.State == Failed {
				want.Failed++
				break
			}
			want.Done++
			ts.Done++
			want.WireBytes += j.WireBytes
			if cs != nil {
				cs.Done++
				if j.Deadline > 0 {
					if j.Finish-j.Arrival <= j.Deadline {
						cs.Met++
					} else {
						cs.Missed++
					}
				}
			}
		}
	}
	got := ses.stats
	type row struct {
		name      string
		got, want int64
	}
	rows := []row{
		{"Submitted", got.Submitted, want.Submitted},
		{"Admitted", got.Admitted, want.Admitted},
		{"Done", got.Done, want.Done},
		{"Failed", got.Failed, want.Failed},
		{"Cancelled", got.Cancelled, want.Cancelled},
		{"RejectedShed", got.RejectedShed, want.RejectedShed},
		{"RejectedQuota", got.RejectedQuota, want.RejectedQuota},
		{"RejectedInvalid", got.RejectedInvalid, want.RejectedInvalid},
		{"RejectedSLO", got.RejectedSLO, want.RejectedSLO},
		{"Queued", got.Queued, want.Queued},
		{"Running", got.Running, want.Running},
		{"WireBytes", got.WireBytes, want.WireBytes},
		{"WaitTotal", int64(got.WaitTotal), int64(want.WaitTotal)},
		{"ServiceTotal", int64(got.ServiceTotal), int64(want.ServiceTotal)},
		{"WaitHist.Count", got.WaitHist.Count, waits},
		{"ServiceHist.Count", got.ServiceHist.Count, services},
	}
	for name, w := range want.Tenants {
		g := got.Tenants[name]
		if g == nil {
			return fmt.Sprintf("tenant %s has no stats", name)
		}
		rows = append(rows,
			row{name + ".Submitted", g.Submitted, w.Submitted},
			row{name + ".Admitted", g.Admitted, w.Admitted},
			row{name + ".Rejected", g.Rejected, w.Rejected},
			row{name + ".Done", g.Done, w.Done},
			row{name + ".inflight", int64(ses.inflight[name]), int64(inflight[name])})
	}
	if len(got.Tenants) != len(want.Tenants) {
		return fmt.Sprintf("%d tenants counted, %d in the job table", len(got.Tenants), len(want.Tenants))
	}
	for name, w := range classes {
		g := got.Classes[name]
		if g == nil {
			return fmt.Sprintf("class %s has no stats", name)
		}
		rows = append(rows,
			row{name + ".Submitted", g.Submitted, w.Submitted},
			row{name + ".Done", g.Done, w.Done},
			row{name + ".Met", g.Met, w.Met},
			row{name + ".Missed", g.Missed, w.Missed},
			row{name + ".Rejected", g.Rejected, w.Rejected})
	}
	if len(got.Classes) != len(classes) {
		return fmt.Sprintf("%d classes counted, %d in the job table", len(got.Classes), len(classes))
	}
	for _, r := range rows {
		if r.got != r.want {
			return fmt.Sprintf("%s = %d, job table says %d", r.name, r.got, r.want)
		}
	}
	return ""
}
