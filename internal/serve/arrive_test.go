package serve

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sched"
)

// TestBuildRunsOutsideSessionLock: Catalog.Build is the slow step of a
// submission (milliseconds for a wo dictionary) and ses.mu is what every
// HTTP reader waits on, so the build must not run under it. Both builders
// here try the lock themselves — deterministic, no clock. The stream also
// pins the order the outcomes are judged in, which moving the build must
// not change: bad class, bad build, shed, quota.
func TestBuildRunsOutsideSessionLock(t *testing.T) {
	var ses *session
	builds := 0
	tryLock := func(name string) {
		builds++
		if !ses.mu.TryLock() {
			t.Errorf("Build of %s ran with the session lock held", name)
			return
		}
		ses.mu.Unlock()
	}
	cat := NewCatalog(testPhys)
	cat.Register("ok", Builder{Build: func(name string, _ Params) (core.Runnable, error) {
		tryLock(name)
		return &gateJob{name: name, gpus: 4, length: des.Millisecond, seen: new(atomic.Bool)}, nil
	}})
	cat.Register("bad", Builder{Build: func(name string, _ Params) (core.Runnable, error) {
		tryLock(name)
		return nil, errors.New("builder said no")
	}})
	ses, err := newSession(Config{
		Cluster:  cluster.DefaultConfig(4),
		Policy:   sched.Policy{Kind: sched.FIFOExclusive},
		Catalog:  cat,
		MaxQueue: 2,
		Quota:    1,
	}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer ses.sch.Close()

	stream := []struct {
		req    Request
		state  State
		reason string
	}{
		{Request{Tenant: "a", Kind: "ok"}, Queued, ""},                         // starts at once
		{Request{Tenant: "b", Kind: "ok"}, Queued, ""},                         // waits, depth 1
		{Request{Tenant: "a", Kind: "bad", Class: "nope"}, Rejected, "class"},  // class before build
		{Request{Tenant: "a", Kind: "bad"}, Rejected, "builder said no"},       // build before quota
		{Request{Tenant: "a", Kind: "ok"}, Rejected, "quota"},                  // room in the queue, a is over
		{Request{Tenant: "c", Kind: "ok"}, Queued, ""},                         // waits, depth 2
		{Request{Tenant: "a", Kind: "bad"}, Rejected, "builder said no"},       // build before shed
		{Request{Tenant: "a", Kind: "ok"}, Rejected, "shed"},                   // shed before quota
		{Request{Tenant: "d", Kind: "ok", Class: "batch"}, Rejected, "shed"},   // a good class changes nothing
		{Request{Tenant: "d", Kind: "nope", Class: "nope"}, Rejected, "class"}, // class before unknown kind
	}
	ses.eng.Spawn("driver", func(p *des.Proc) {
		for i, st := range stream {
			info := ses.arrive(p.Now(), st.req)
			// A job admitted onto an idle machine is already Running.
			admitted := info.State == Queued || info.State == Running
			if admitted != (st.state == Queued) || !strings.Contains(info.Reason, st.reason) {
				t.Errorf("submission %d: state %v reason %q, want %v with %q", i, info.State, info.Reason, st.state, st.reason)
			}
		}
	})
	ses.sch.Run()
	// Every submission but the two with an unparseable class was built.
	if want := len(stream) - 2; builds != want {
		t.Errorf("%d builds, want %d", builds, want)
	}
	if s := ses.stats; s.Submitted != 10 || s.Done != 3 || s.RejectedInvalid != 4 || s.RejectedShed != 2 || s.RejectedQuota != 1 {
		t.Errorf("stats: %+v", s)
	}
}
