package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Emit(1, CatSim, "s", "k")
	r.Span(1, 2, CatSim, "s", "k", Int("n", 3))
	r.SetPrefix("p/")
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	if evs := r.Events(); evs != nil {
		t.Fatalf("Events = %v, want nil", evs)
	}
	if evs := r.Canonical(); evs != nil {
		t.Fatalf("Canonical = %v, want nil", evs)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalOrderAndSeq(t *testing.T) {
	r := New()
	// Emit out of time order across two streams; ties on T break by
	// stream, then by per-stream seq.
	r.Emit(30, CatSim, "b", "late")
	r.Emit(10, CatSim, "a", "first")
	r.Emit(10, CatSim, "b", "tie")
	r.Emit(10, CatSim, "a", "second")
	r.Emit(20, CatEngine, "a", "internal")

	evs := r.Canonical()
	got := make([]string, len(evs))
	for i, e := range evs {
		got[i] = e.Stream + ":" + e.Kind
	}
	want := []string{"a:first", "a:second", "b:tie", "b:late"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("canonical order = %v, want %v", got, want)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("stream a seqs = %d,%d, want 0,1", evs[0].Seq, evs[1].Seq)
	}
	// Events() includes CatEngine; Canonical() excluded it.
	if r.Len() != 5 || len(r.Events()) != 5 || len(evs) != 4 {
		t.Fatalf("Len=%d Events=%d Canonical=%d, want 5/5/4", r.Len(), len(r.Events()), len(evs))
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	r := New()
	r.Span(10, 5, CatSim, "s", "k")
	evs := r.Events()
	if evs[0].Dur != 0 {
		t.Fatalf("Dur = %d, want 0", evs[0].Dur)
	}
}

func TestSetPrefixSeparatesRuns(t *testing.T) {
	r := New()
	r.SetPrefix("fifo/")
	r.Emit(1, CatSim, "job", "a")
	r.SetPrefix("sjf/")
	r.Emit(1, CatSim, "job", "b")
	evs := r.Canonical()
	if evs[0].Stream != "fifo/job" || evs[1].Stream != "sjf/job" {
		t.Fatalf("streams = %q,%q", evs[0].Stream, evs[1].Stream)
	}
	// Independent seq counters per prefixed stream.
	if evs[0].Seq != 0 || evs[1].Seq != 0 {
		t.Fatalf("seqs = %d,%d, want 0,0", evs[0].Seq, evs[1].Seq)
	}
}

func TestAttrAccessors(t *testing.T) {
	r := New()
	r.Emit(1, CatSim, "s", "k", A("x", "y"), Int("n", -7), Float("f", 0.5), Bool("b", true))
	e := r.Events()[0]
	if e.Attr("x") != "y" || e.Attr("n") != "-7" || e.Attr("f") != "0.5" || e.Attr("b") != "true" {
		t.Fatalf("attrs = %v", e.Attrs)
	}
	if e.Attr("missing") != "" {
		t.Fatal("missing attr not empty")
	}
}

// jsonlGolden is TestWriteJSONLGolden's export, byte for byte.
const jsonlGolden = `{"t":1000,"dur":2000,"stream":"gpu0.compute","kind":"kernel","attrs":{"name":"map"}}
{"t":1500,"dur":0,"stream":"wc/r0","kind":"steal","attrs":{"from":"2"}}
`

func TestWriteJSONLGolden(t *testing.T) {
	r := New()
	r.Span(1000, 3000, CatSim, "gpu0.compute", "kernel", A("name", "map"))
	r.Emit(1500, CatSim, "wc/r0", "steal", Int("from", 2))
	r.Emit(1500, CatEngine, "shardset", "round")
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != jsonlGolden {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", buf.String(), jsonlGolden)
	}
	// Every line is valid JSON.
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
}

func TestWriteChromeValidAndFiltered(t *testing.T) {
	r := New()
	r.Span(1000, 3000, CatSim, "gpu0.compute", "kernel", A("name", "map"))
	r.Emit(2500, CatSim, "wc/r0", "steal")
	r.Span(500, 4000, CatSim, "wc/r0", "phase.map")
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Name string          `json:"name"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 1 process_name + 2 thread_name metadata + 3 events.
	var meta, spans, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
		case "i":
			instants++
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
	}
	if meta != 3 || spans != 2 || instants != 1 {
		t.Fatalf("meta/spans/instants = %d/%d/%d, want 3/2/1", meta, spans, instants)
	}

	// Filtered export keeps only the selected stream.
	buf.Reset()
	if err := r.WriteChromeFiltered(&buf, func(s string) bool { return s == "wc/r0" }); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "gpu0.compute") {
		t.Fatal("filtered export leaked other stream")
	}
	if !strings.Contains(buf.String(), "phase.map") {
		t.Fatal("filtered export dropped selected stream")
	}
}

// FuzzReadJSONL feeds ReadJSONL bytes no WriteJSONL wrote: it must return
// an error or accept, never panic, and events it accepts, written back
// with WriteJSONL, must read back equal. Seeds: the golden export, and
// truncated, non-object and wrong-type lines; testdata/fuzz/FuzzReadJSONL
// keeps the corpus tier-1 replays.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(jsonlGolden))
	f.Add([]byte(jsonlGolden[:len(jsonlGolden)/2]))
	f.Add([]byte(`[{"t":1,"dur":0,"stream":"s","kind":"k"}]`))
	f.Add([]byte(`"kernel"` + "\n" + `17`))
	f.Add([]byte(`{"t":"1","dur":0,"stream":"s","kind":"k"}`))
	f.Add([]byte(`{"t":1,"dur":0,"stream":7,"kind":"k"}`))
	f.Add([]byte(`{"t":1,"dur":0,"stream":"s","kind":"k","attrs":{"n":3}}`))
	f.Add([]byte(`{"t":1.5,"dur":1e3,"stream":"s","kind":"k","extra":[1,{"x":null}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, evs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written back, the accepted events no longer read: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, evs) {
			t.Fatalf("the accepted events, written back as\n%s\nread as %+v, want %+v", buf.Bytes(), again, evs)
		}
	})
}
