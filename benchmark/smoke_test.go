package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// In-process smoke runs with tiny counts: they check that every probe and
// generator works and reports what it should, never how fast.

func TestProbeSuiteQuick(t *testing.T) {
	rep := runProbes(true, t.TempDir())
	if rep.Error != "" {
		t.Fatalf("probe suite: %s", rep.Error)
	}
	probes := 0
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "bench.") {
			break // the probe suite's metrics come first
		}
		probes++
		v, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("the suite did not report %s", m.Name)
		} else if v <= 0 && m.Name != "serve.drain_ms" {
			t.Errorf("%s = %g", m.Name, v)
		}
	}
	if len(rep.Metrics) != probes {
		t.Errorf("the suite reported %d metrics, %d are defined", len(rep.Metrics), probes)
	}
	if len(rep.Spans) < probes/2 {
		t.Errorf("only %d probe spans", len(rep.Spans))
	}
}

func TestSchedGeneratorsQuick(t *testing.T) {
	for _, burst := range []bool{false, true} {
		a, b := runNoopJobs(3, 120, burst), runNoopJobs(3, 120, burst)
		if a.Error != "" {
			t.Fatalf("burst=%v: %s", burst, a.Error)
		}
		if a.Jobs != 120 || a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("burst=%v: %d jobs, digests %q and %q", burst, a.Jobs, a.Digest, b.Digest)
		}
		if other := runNoopJobs(4, 120, burst); other.Digest == a.Digest {
			t.Errorf("burst=%v: seeds 3 and 4 gave the same trace", burst)
		}
		if a.DoneP95Ms < a.DoneP50Ms || a.AcceptP50Ms <= 0 {
			t.Errorf("burst=%v: latencies %+v", burst, a)
		}
	}
}

// stubDaemon answers like gpmrd: a POST queues a job, and the job reads
// done from its third poll on.
func stubDaemon(t *testing.T) *httptest.Server {
	var mu sync.Mutex
	polls := map[string]int{}
	next := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		id := next
		next++
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%d,"state":"queued"}`, id)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		polls[r.PathValue("id")]++
		n := polls[r.PathValue("id")]
		mu.Unlock()
		if n < 3 {
			fmt.Fprintf(w, `{"id":%s,"state":"running"}`, r.PathValue("id"))
			return
		}
		fmt.Fprintf(w, `{"id":%s,"state":"done","digest":255,"hasDigest":true}`, r.PathValue("id"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestLoadgenDriversSettleEveryJob(t *testing.T) {
	srv := stubDaemon(t)
	tr := newTracer("test")
	lg := newLoadgen(2, 100*time.Microsecond, tr)
	defer lg.close()
	jobs := func(n int) []*jobOp {
		ops := make([]*jobOp, n)
		for i, body := range jobBodies(1, 0, n, 4) {
			ops[i] = &jobOp{idx: i, body: body}
		}
		return ops
	}
	check := func(name string, p phaseResult, ops []*jobOp) {
		t.Helper()
		if p.Attempted != len(ops) || p.Failed != 0 {
			t.Errorf("%s: %+v", name, p)
		}
		for _, op := range ops {
			if op.err != "" || op.state != "done" || op.digest != "00000000000000ff" {
				t.Errorf("%s: job %d: state %q digest %q err %q", name, op.idx, op.state, op.digest, op.err)
			}
			if op.accepted.Before(op.due) || op.done.Before(op.accepted) {
				t.Errorf("%s: job %d: due, accepted and done are out of order", name, op.idx)
			}
		}
	}
	ops := jobs(12)
	check("closed, clients wait", lg.closedLoop("a", srv.URL, ops, 2, true), ops)
	ops = jobs(12)
	p := lg.closedLoop("b", srv.URL, ops, 2, false)
	lg.settle(srv.URL, ops)
	check("closed, settled afterwards", p, ops)
	ops = jobs(12)
	check("open", lg.openLoop("c", srv.URL, ops, arrivalSchedule(1, 12, 2000)), ops)
	if tr.count() < 3+36*4 {
		t.Errorf("%d spans for 3 phases of 12 jobs with at least 4 requests each", tr.count())
	}
}

func TestJudge(t *testing.T) {
	lowerM := metricDef{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.10}
	higherM := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	cases := []struct {
		name    string
		m       metricDef
		a, b    []float64
		flagged bool
		want    verdict
	}{
		{"within the bound", lowerM, []float64{10, 10.1, 9.9, 10}, []float64{10.5, 10.6, 10.4, 10.5}, false, verdictOK},
		{"slower than the bound", lowerM, []float64{10, 10.1, 9.9, 10}, []float64{11.5, 11.6, 11.4, 11.5}, false, verdictWorse},
		{"throughput fell", higherM, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, false, verdictWorse},
		{"throughput rose", higherM, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, false, verdictOK},
		{"spread wider than the bound", lowerM, []float64{8, 10, 12, 14}, []float64{9, 11, 13, 15}, false, verdictUnresolved},
		{"wide spread but every run better", lowerM, []float64{8, 10, 12, 14}, []float64{4, 5, 6, 7}, false, verdictOK},
		{"a run marked itself unresolved", lowerM, []float64{10, 10, 10, 10}, []float64{10, 10, 10, 10}, true, verdictUnresolved},
		{"single runs", lowerM, []float64{10}, []float64{12}, false, verdictWorse},
	}
	for _, c := range cases {
		if got := judge(c.m, c.a, c.b, c.flagged); got.Verdict != c.want {
			t.Errorf("%s: %s (change %+.3f, spread %.3f), want %s", c.name, got.Verdict, got.Change, got.Spread, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	run := func(wall float64) *result {
		r := newResult("sched_burst", 1, 8, false)
		r.set("wall_s", wall, 0)
		return r
	}
	var out strings.Builder
	if code := printComparison(&out, compareRuns([]*result{run(10)}, []*result{run(10.2)}), nil, nil); code != 0 {
		t.Errorf("a 2%% change exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(&out, compareRuns([]*result{run(10)}, []*result{run(13)}), nil, nil); code != 1 {
		t.Errorf("a 30%% regression exits %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "+30.00%") {
		t.Errorf("comparison does not show the regression:\n%s", out.String())
	}
}

func TestTraceFlagTakesAnOptionalValue(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace", "0", "-trace"})
	want := []string{"--workload", "x", "-trace=1", "--seed", "3", "-trace=0", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeTrace = %v, want %v", got, want)
	}
}

func TestContractLineHasExactlyTheDriverKeys(t *testing.T) {
	r := newResult("sched_burst", 1, 8, false)
	r.Attempted = 5
	r.set("wall_s", 1.25, 0)
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("keys of %s", r.contractLine())
	}
	if string(line["metrics"]) != `{"wall_s":{"value":1.25,"unit":"s"}}` {
		t.Errorf("metrics = %s", line["metrics"])
	}
}
