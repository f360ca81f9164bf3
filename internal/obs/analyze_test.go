package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// jobRecording builds a synthetic but shape-faithful recording of one
// served job: arrive, placement, two ranks' phase spans, and the serve
// lifecycle spans, exactly as serve/sched/core emit them.
func jobRecording() *Recorder {
	r := New()
	r.Emit(100, CatSim, "serve/t0-mm-1", "arrive", A("tenant", "t0"), A("kind", "mm"), A("trace", "f1"))
	r.Span(100, 300, CatSim, "sched/t0-mm-1", "queue.wait")
	r.Emit(300, CatSim, "sched/t0-mm-1", "place", Int("gang", 2), Int("want", 2), Bool("backfill", false))
	// Rank 0 is the straggler: its reduce ends last.
	r.Span(400, 900, CatSim, "t0-mm-1/r0", "phase.map", Int("chunks", 4))
	r.Span(900, 1000, CatSim, "t0-mm-1/r0", "phase.shuffle")
	r.Span(1000, 1100, CatSim, "t0-mm-1/r0", "phase.sort")
	r.Span(1100, 1500, CatSim, "t0-mm-1/r0", "phase.reduce")
	r.Span(400, 800, CatSim, "t0-mm-1/r1", "phase.map", Int("chunks", 4))
	r.Span(800, 900, CatSim, "t0-mm-1/r1", "phase.shuffle")
	r.Span(900, 1000, CatSim, "t0-mm-1/r1", "phase.sort")
	r.Span(1000, 1400, CatSim, "t0-mm-1/r1", "phase.reduce")
	r.Span(100, 300, CatSim, "serve/t0-mm-1", "job.wait")
	r.Span(300, 1600, CatSim, "serve/t0-mm-1", "job.run", A("state", "done"), Int("gang", 2))
	return r
}

func TestJobsDiscovery(t *testing.T) {
	r := New()
	r.Emit(0, CatSim, "serve/t0-mm-1", "arrive")
	r.Emit(0, CatSim, "sched/t0-mm-1", "place")
	r.Span(0, 5, CatSim, "t0-mm-1/r0", "phase.map")
	// A prefixed run (SetPrefix seam) and a bare core run.
	r.Emit(1, CatSim, "fifo/sched/t1-sio-2", "place")
	r.Span(0, 9, CatSim, "mm/r0", "phase.map")
	r.Span(0, 9, CatSim, "mm/r1", "phase.map")

	got := Jobs(r.Canonical())
	want := []JobKey{
		{Prefix: "fifo/", Name: "t1-sio-2"},
		{Name: "mm"},
		{Name: "t0-mm-1"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Jobs = %+v, want %+v", got, want)
	}
}

func TestExplainPhasesSumToLatency(t *testing.T) {
	ex := ExplainJob(jobRecording().Canonical(), "t0-mm-1")
	if ex.State != "done" || ex.TraceID != "f1" || ex.Gang != 2 || ex.Ranks != 2 {
		t.Fatalf("header: %+v", ex)
	}
	if ex.ArrivalNs != 100 || ex.FinishNs != 1600 || ex.LatencyNs != 1500 {
		t.Fatalf("stamps: %+v", ex)
	}
	if ex.CriticalRank != "t0-mm-1/r0" {
		t.Fatalf("critical rank = %q", ex.CriticalRank)
	}
	wantNames := []string{"wait", "launch", "map", "shuffle", "sort", "reduce", "commit"}
	if len(ex.Phases) != len(wantNames) {
		t.Fatalf("phases: %+v", ex.Phases)
	}
	var sum int64
	cur := ex.ArrivalNs
	for i, p := range ex.Phases {
		if p.Name != wantNames[i] {
			t.Fatalf("phase %d = %q, want %q", i, p.Name, wantNames[i])
		}
		if p.StartNs != cur {
			t.Fatalf("phase %q starts at %d, previous ended at %d", p.Name, p.StartNs, cur)
		}
		cur = p.EndNs
		sum += p.DurNs
	}
	if sum != ex.LatencyNs {
		t.Fatalf("phase durations sum to %d, latency %d", sum, ex.LatencyNs)
	}
	if cur != ex.FinishNs {
		t.Fatalf("last phase ends at %d, finish %d", cur, ex.FinishNs)
	}
	if ex.Bottleneck != "map" || ex.BottleneckNs != 500 {
		t.Fatalf("bottleneck: %+v", ex)
	}
	// The text rendering is deterministic.
	if a, b := ex.String(), ExplainJob(jobRecording().Canonical(), "t0-mm-1").String(); a != b {
		t.Fatalf("String not deterministic:\n%s\n%s", a, b)
	}
}

func TestExplainCriticalRankTie(t *testing.T) {
	r := New()
	for _, rank := range []string{"j/r1", "j/r0"} { // emission order must not matter
		r.Span(0, 10, CatSim, rank, "phase.map")
		r.Span(10, 20, CatSim, rank, "phase.shuffle")
		r.Span(20, 30, CatSim, rank, "phase.sort")
		r.Span(30, 40, CatSim, rank, "phase.reduce")
	}
	ex := ExplainJob(r.Canonical(), "j")
	if ex.CriticalRank != "j/r0" {
		t.Fatalf("tie should pick smallest stream, got %q", ex.CriticalRank)
	}
	if ex.State != "done" || ex.ArrivalNs != 0 || ex.FinishNs != 40 {
		t.Fatalf("bare run stamps: %+v", ex)
	}
	// No serve job.run names a gang: a bare run's gang is the ranks it ran on.
	if ex.Gang != 2 || ex.Ranks != 2 {
		t.Fatalf("bare run: gang %d ranks %d, want 2 and 2", ex.Gang, ex.Ranks)
	}
}

func TestExplainNeverRan(t *testing.T) {
	r := New()
	r.Emit(50, CatSim, "serve/t0-mm-1", "arrive", A("tenant", "t0"), A("kind", "mm"))
	r.Emit(70, CatSim, "serve/t0-mm-1", "reject", A("reason", "shed"))
	ex := ExplainJob(r.Canonical(), "t0-mm-1")
	if ex.State != "rejected" || ex.LatencyNs != 20 {
		t.Fatalf("rejected: %+v", ex)
	}
	if len(ex.Phases) != 1 || ex.Phases[0].Name != "wait" || ex.Phases[0].DurNs != 20 {
		t.Fatalf("phases: %+v", ex.Phases)
	}
	if ex.Bottleneck != "wait" || ex.BottleneckPct != 100 {
		t.Fatalf("bottleneck: %+v", ex)
	}
}

func TestExplainUnknownJob(t *testing.T) {
	ex := ExplainJob(jobRecording().Canonical(), "nope")
	if ex.State != "" || ex.LatencyNs != 0 || len(ex.Phases) != 0 {
		t.Fatalf("unknown job should be empty: %+v", ex)
	}
}

func TestExplainCounters(t *testing.T) {
	r := jobRecording()
	r.Emit(500, CatSim, "t0-mm-1/r0", "recover", Int("from", 1), Int("bytes", 64))
	r.Emit(600, CatSim, "t0-mm-1/r1", "spec.launch", Int("chunk", 3))
	r.Emit(700, CatSim, "t0-mm-1/r1", "steal", Int("from", 0), Int("bytes", 32))
	r.Emit(800, CatSim, "sched/t0-mm-1", "preempt", A("why", "class"))
	r.Emit(900, CatSim, "sched/t0-mm-1", "place", Int("gang", 2), Int("want", 2), Bool("backfill", false))
	ex := ExplainJob(r.Canonical(), "t0-mm-1")
	if ex.Recoveries != 1 || ex.Speculations != 1 || ex.Steals != 1 || ex.Preemptions != 1 || ex.Restarts != 1 {
		t.Fatalf("counters: %+v", ex)
	}
}

// phases emits one rank's four phase spans back to back from start, each
// d long, as core's emitPhases does.
func phases(r *Recorder, stream string, start, d int64) {
	for i, kind := range []string{"phase.map", "phase.shuffle", "phase.sort", "phase.reduce"} {
		at := start + int64(i)*d
		r.Span(at, at+d, CatSim, stream, kind)
	}
}

func TestExplainCountsFinalPlacementOnly(t *testing.T) {
	// Placed on four ranks, preempted, placed again on two: the first
	// attempt's r2 and r3 are not ranks of the job that finished.
	r := New()
	r.Emit(0, CatSim, "serve/t0-sio-1", "arrive")
	r.Emit(10, CatSim, "sched/t0-sio-1", "place", Int("gang", 4))
	for _, rank := range []string{"r0", "r1", "r2", "r3"} {
		phases(r, "t0-sio-1/"+rank, 20, 40)
	}
	r.Emit(200, CatSim, "sched/t0-sio-1", "preempt")
	r.Emit(300, CatSim, "sched/t0-sio-1", "place", Int("gang", 2))
	phases(r, "t0-sio-1/r0", 310, 100)
	phases(r, "t0-sio-1/r1", 310, 90)
	r.Span(300, 800, CatSim, "serve/t0-sio-1", "job.run", A("state", "done"), Int("gang", 2))

	ex := ExplainJob(r.Canonical(), "t0-sio-1")
	if ex.Gang != 2 || ex.Ranks != 2 {
		t.Fatalf("gang %d ranks %d, want 2 and 2", ex.Gang, ex.Ranks)
	}
	if ex.CriticalRank != "t0-sio-1/r0" || ex.Restarts != 1 || ex.Preemptions != 1 {
		t.Fatalf("explained %+v", ex)
	}
	if p := ex.Phases[0]; p.Name != "wait" || p.EndNs != 300 {
		t.Fatalf("the first attempt must stay inside wait: %+v", ex.Phases)
	}
}

func TestJobStreamsNeedRankDigits(t *testing.T) {
	// Tenant names are free text: job 7 of tenant "ana-wo-0/rX" has the
	// rank stream "ana-wo-0/rX-wo-7/r0", which starts like a rank stream
	// of job "ana-wo-0" but is not one.
	own := JobStreams("ana-wo-0")
	for stream, want := range map[string]bool{
		"serve/ana-wo-0":         true,
		"sched/ana-wo-0":         true,
		"ana-wo-0/r0":            true,
		"ana-wo-0/r12":           true,
		"ana-wo-0/r":             false,
		"ana-wo-0/rX-wo-7/r0":    false,
		"serve/ana-wo-0/rX-wo-7": false,
		"ana-wo-01/r0":           false,
		"gpu0.compute":           false,
	} {
		if got := own(stream); got != want {
			t.Errorf("JobStreams(ana-wo-0)(%q) = %v, want %v", stream, got, want)
		}
	}

	// Explain draws the same line.
	r := New()
	phases(r, "ana-wo-0/r0", 0, 10)
	phases(r, "ana-wo-0/rX-wo-7/r0", 0, 20)
	if ex := ExplainJob(r.Canonical(), "ana-wo-0"); ex.Ranks != 1 || ex.LatencyNs != 40 {
		t.Fatalf("explained %+v", ex)
	}
}

func TestReadJSONLRoundTrip(t *testing.T) {
	r := jobRecording()
	var orig bytes.Buffer
	if err := r.WriteJSONL(&orig); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(r.Canonical()) {
		t.Fatalf("read %d events, want %d", len(evs), len(r.Canonical()))
	}
	// Re-sorting the parsed events must not change their order (the file
	// is canonical, and ReadJSONL's reassigned seqs preserve it), and
	// writing them back must reproduce the file byte for byte.
	Sort(evs)
	var round bytes.Buffer
	if err := WriteJSONL(&round, evs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), round.Bytes()) {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", orig.String(), round.String())
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":1,"dur":"x","stream":"s","kind":"k"}`)); err == nil {
		t.Fatal("malformed dur should error")
	}
}

func TestWriteChromeGrouped(t *testing.T) {
	r := jobRecording()
	evs := r.Canonical()

	// nil groupOf must be byte-identical to the single-group writer.
	var plain, nilGrouped bytes.Buffer
	if err := WriteChrome(&plain, evs, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeGrouped(&nilGrouped, evs, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), nilGrouped.Bytes()) {
		t.Fatal("nil groupOf differs from WriteChrome")
	}

	// Grouping by shard prefix yields one pid per group, sorted.
	pre := append([]Event(nil), evs...)
	for i := range pre {
		if i%2 == 0 {
			pre[i].Stream = "s1/" + pre[i].Stream
		} else {
			pre[i].Stream = "s0/" + pre[i].Stream
		}
	}
	var grouped bytes.Buffer
	err := WriteChromeGrouped(&grouped, pre, func(stream string) string {
		return stream[:strings.Index(stream, "/")]
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(grouped.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome JSON: %v", err)
	}
	var procs []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatal(err)
			}
			procs = append(procs, args.Name)
			if want := len(procs); e.Pid != want {
				t.Fatalf("process %q pid %d, want %d", args.Name, e.Pid, want)
			}
		}
	}
	if !reflect.DeepEqual(procs, []string{"s0", "s1"}) {
		t.Fatalf("process groups = %v", procs)
	}
}
