package serve

import (
	"bytes"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/des"
)

func TestTraceRoundTrip(t *testing.T) {
	h := Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 8, GPUsPerNode: 4,
		MaxQueue: 16, Quota: 4, PhysBudget: 4096}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, h)
	w.Arrive(Arrival{Seq: 0, At: 5, Request: Request{Tenant: "a", Kind: "wo", Params: Params{"bytes": 1024}, Weight: 2}})
	w.Arrive(Arrival{Seq: 1, At: 9, Request: Request{Tenant: "b", Kind: "sio", MinGang: 2}})
	w.Cancel(Cancel{Seq: 0, At: 12})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Header.Policy != "weighted-fair" || tr.Header.Quota != 4 || tr.Header.PhysBudget != 4096 {
		t.Fatalf("header mangled: %+v", tr.Header)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(tr.Events))
	}
	a := tr.Events[0].Arrive
	if a == nil || a.Tenant != "a" || a.Params["bytes"] != 1024 || a.Weight != 2 {
		t.Fatalf("arrival 0 mangled: %+v", a)
	}
	if c := tr.Events[2].Cancel; c == nil || c.Seq != 0 || c.At != 12 {
		t.Fatalf("cancel mangled: %+v", tr.Events[2])
	}
}

const traceHead = `{"version":1,"policy":"weighted-fair","gpus":4,"gpusPerNode":4,"maxQueue":8,"physBudget":64}` + "\n"

// badTraces are traces ReadTrace must reject.
var badTraces = map[string]string{
	"bad version":      strings.Replace(traceHead, `"version":1`, `"version":99`, 1),
	"truncated header": traceHead[:40],
	"backwards time":   traceHead + `{"arrive":{"seq":0,"at":10,"tenant":"a","kind":"wo"}}` + "\n" + `{"arrive":{"seq":1,"at":5,"tenant":"a","kind":"wo"}}` + "\n",
	"seq gap":          traceHead + `{"arrive":{"seq":1,"at":0,"tenant":"a","kind":"wo"}}` + "\n",
	"unknown cancel":   traceHead + `{"cancel":{"seq":3,"at":1}}` + "\n",
	"empty event":      traceHead + `{}` + "\n",
	"double event":     traceHead + `{"arrive":{"seq":0,"at":1,"tenant":"a","kind":"wo"},"cancel":{"seq":0,"at":1}}` + "\n",
	"garbage":          traceHead + `not json` + "\n",
	// Grow-back rides on preempt: a header from before the fold that set
	// elastic alone would replay without it.
	"elastic without preempt": strings.Replace(traceHead, `"physBudget":64`, `"physBudget":64,"elastic":true`, 1),
}

func TestTraceReadRejects(t *testing.T) {
	for name, in := range badTraces {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted bad input", name)
		}
	}
	_, err := ReadTrace(strings.NewReader(badTraces["elastic without preempt"]))
	if err == nil || !strings.Contains(err.Error(), "grow-back is part of preempt") {
		t.Errorf("elastic without preempt: err = %v, want it to name the fold into preempt", err)
	}
	folded := strings.Replace(traceHead, `"physBudget":64`, `"physBudget":64,"preempt":true,"elastic":true`, 1)
	if tr, err := ReadTrace(strings.NewReader(folded)); err != nil || !tr.Header.Preempt {
		t.Errorf("elastic with preempt: %v, %+v; want it read as preempt", err, tr)
	}
	if _, err := ReadTrace(strings.NewReader(traceHead)); err != nil {
		t.Errorf("event-free trace rejected: %v", err)
	}
}

// TestReplayRejectsUnknownPolicy pins the header policy check.
func TestReplayRejectsUnknownPolicy(t *testing.T) {
	tr := &Trace{Header: Header{Version: TraceVersion, Policy: "round-robin", GPUs: 4, GPUsPerNode: 4, PhysBudget: 64}}
	if _, err := Replay(tr, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v, want unknown policy", err)
	}
}

// TestHeaderTimes sanity-checks des.Time JSON round-tripping (int64 ns).
func TestHeaderTimes(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 1, GPUsPerNode: 1, PhysBudget: 1})
	at := 3*des.Second + 141*des.Millisecond
	w.Arrive(Arrival{Seq: 0, At: at, Request: Request{Tenant: "x", Kind: "wo"}})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got := tr.Events[0].Arrive.At; got != at {
		t.Fatalf("time round-trip: %v != %v", got, at)
	}
}

// goldenTrace is the arrival-trace wire format, byte for byte: a header
// with the SLO switches and a fleet stamp, a plain arrival, an arrival
// using every submission field, and a cancel. Arrival lines are Request's
// JSON keys behind seq/at, so this fixture is what guards the embedding:
// a renamed tag, a reordered field or a lost omitempty changes these bytes
// and breaks replay of every recorded trace.
const goldenTrace = `{"version":1,"policy":"weighted-fair","gpus":8,"gpusPerNode":4,"maxQueue":16,"physBudget":4096,"reserve":true,"preempt":true,"shard":"s1","epoch":3}
{"arrive":{"seq":0,"at":5,"tenant":"a","kind":"wo","params":{"bytes":1024}}}
{"arrive":{"seq":1,"at":9,"tenant":"b","kind":"kmc","params":{"gpus":4,"points":4096},"weight":2,"minGang":4,"class":"interactive","deadline":25000000,"downgrade":true,"elastic":true,"tag":"f7","traceId":"trace-7"}}
{"cancel":{"seq":0,"at":12}}
`

func TestTraceWireFormatGolden(t *testing.T) {
	plain := Request{Tenant: "a", Kind: "wo", Params: Params{"bytes": 1024}}
	full := Request{Tenant: "b", Kind: "kmc", Params: Params{"points": 4096, "gpus": 4},
		Weight: 2, MinGang: 4, Class: "interactive", Deadline: 25 * des.Millisecond,
		Downgrade: true, Elastic: true, Tag: "f7", TraceID: "trace-7"}

	var buf bytes.Buffer
	w := NewTraceWriter(&buf, Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 8, GPUsPerNode: 4,
		MaxQueue: 16, PhysBudget: 4096, Reserve: true, Preempt: true})
	if err := w.SetFleet("s1", 3); err != nil {
		t.Fatalf("SetFleet: %v", err)
	}
	w.Arrive(Arrival{Seq: 0, At: 5, Request: plain})
	w.Arrive(Arrival{Seq: 1, At: 9, Request: full})
	w.Cancel(Cancel{Seq: 0, At: 12})
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := buf.String(); got != goldenTrace {
		t.Fatalf("trace bytes changed:\n--- got ---\n%s--- want ---\n%s", got, goldenTrace)
	}

	tr, err := ReadTrace(strings.NewReader(goldenTrace))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Header.Shard != "s1" || tr.Header.Epoch != 3 || !tr.Header.Reserve || !tr.Header.Preempt {
		t.Fatalf("header mangled: %+v", tr.Header)
	}
	if len(tr.Events) != 3 || tr.Events[2].Cancel == nil {
		t.Fatalf("events mangled: %+v", tr.Events)
	}
	for i, want := range []Request{plain, full} {
		if got := tr.Events[i].Arrive.Request; !reflect.DeepEqual(got, want) {
			t.Errorf("arrival %d read back as %+v, want %+v", i, got, want)
		}
	}
}

// FuzzReadTrace feeds ReadTrace bytes no TraceWriter wrote: it must return
// an error or accept, never panic, and a trace it accepts, written back
// through TraceWriter, must read back equal. Seeds: the recording the
// identity manifest replays, the wire-format golden and badTraces;
// testdata/fuzz/FuzzReadTrace keeps every input it has failed on.
func FuzzReadTrace(f *testing.F) {
	submit, err := os.ReadFile("../bench/testdata/gpmrd_submit.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(badTraces)) {
		f.Add([]byte(badTraces[name]))
	}
	f.Add(submit)
	f.Add([]byte(goldenTrace))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewTraceWriter(&buf, tr.Header)
		for _, ev := range tr.Events {
			if ev.Arrive != nil {
				w.Arrive(*ev.Arrive)
			} else {
				w.Cancel(*ev.Cancel)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written back, the accepted trace no longer reads: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("the accepted trace, written back as\n%s\nreads as another", buf.Bytes())
		}
	})
}
