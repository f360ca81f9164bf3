package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
)

// metricsTrace is a small deterministic arrival stream: three placed
// jobs across two tenants plus one invalid submission, enough to
// exercise every counter family, both histograms, and a reject.
func metricsTrace() *Trace {
	h := Header{Version: TraceVersion, Policy: "weighted-fair", GPUs: 8, GPUsPerNode: 4,
		MaxQueue: 4, Quota: 2, PhysBudget: 2048}
	return &Trace{Header: h, Events: []Event{
		{Arrive: &Arrival{Seq: 0, At: 0, Request: Request{Tenant: "ana", Kind: "wo",
			Params: Params{"bytes": 1 << 20, "gpus": 2, "seed": 1}}}},
		{Arrive: &Arrival{Seq: 1, At: des.Millisecond, Request: Request{Tenant: "bo", Kind: "kmc",
			Params: Params{"points": 1 << 20, "gpus": 2, "seed": 2}}}},
		{Arrive: &Arrival{Seq: 2, At: 2 * des.Millisecond, Request: Request{Tenant: "ana", Kind: "sio",
			Params: Params{"elements": 1 << 20, "gpus": 4, "seed": 3, "chunkcap": 1 << 18}}}},
		{Arrive: &Arrival{Seq: 3, At: 3 * des.Millisecond, Request: Request{Tenant: "cy", Kind: "nope"}}},
	}}
}

// metricsText replays the stream and snapshots the exposition.
func metricsText(t *testing.T, rec *obs.Recorder) (string, *session) {
	t.Helper()
	ses, _, err := replaySession(metricsTrace(), ReplayOptions{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ses.writeMetrics(&buf)
	return buf.String(), ses
}

func TestMetricsGolden(t *testing.T) {
	// The replay is deterministic, so two independent sessions must
	// expose byte-identical metrics text...
	a, _ := metricsText(t, nil)
	b, _ := metricsText(t, nil)
	if a != b {
		t.Fatalf("metrics text differs between identical replays:\n--- a\n%s\n--- b\n%s", a, b)
	}
	// ...and the headline samples are pinned exactly.
	for _, want := range []string{
		"gpmr_serve_submitted_total 4\n",
		"gpmr_serve_done_total 3\n",
		"gpmr_serve_failed_total 0\n",
		`gpmr_serve_rejected_total{reason="invalid"} 1` + "\n",
		"gpmr_serve_wait_seconds_count 3\n",
		"gpmr_serve_service_seconds_count 3\n",
		`gpmr_serve_wait_seconds_bucket{le="+Inf"} 3` + "\n",
		`gpmr_serve_tenant_submitted_total{tenant="ana"} 2` + "\n",
		`gpmr_serve_tenant_rejected_total{tenant="cy"} 1` + "\n",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("exposition is missing %q", strings.TrimSpace(want))
		}
	}
}

// sampleName extracts the metric name of one sample line.
func sampleName(line string) string {
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		return line[:i]
	}
	return line
}

// baseName strips a histogram sample's series suffix back to the
// declared metric name.
func baseName(name string, histograms map[string]bool) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b := strings.TrimSuffix(name, suf); b != name && histograms[b] {
			return b
		}
	}
	return name
}

func TestMetricsExpositionLint(t *testing.T) {
	text, _ := metricsText(t, nil)
	nameRe := regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

	helps := map[string]bool{}
	types := map[string]string{}
	histograms := map[string]bool{}
	type series struct {
		buckets []int64 // cumulative, in exposition order
		inf     int64
		count   int64
		hasInf  bool
	}
	hists := map[string]*series{}

	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(f) != 2 || f[1] == "" {
				t.Errorf("HELP without text: %q", line)
			}
			helps[f[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line[len("# TYPE "):])
			if len(f) != 2 {
				t.Fatalf("malformed TYPE: %q", line)
			}
			types[f[0]] = f[1]
			if f[1] == "histogram" {
				histograms[f[0]] = true
				hists[f[0]] = &series{}
			}
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line %q", line)
		default:
			name := sampleName(line)
			base := baseName(name, histograms)
			if !nameRe.MatchString(name) {
				t.Errorf("sample name %q violates [a-z_][a-z0-9_]*", name)
			}
			if !helps[base] {
				t.Errorf("sample %q has no HELP for %q", line, base)
			}
			if types[base] == "" {
				t.Errorf("sample %q has no TYPE for %q", line, base)
			}
			if h := hists[base]; h != nil {
				val, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
				switch {
				case strings.Contains(line, `le="+Inf"`):
					if err != nil {
						t.Errorf("bad +Inf bucket %q", line)
					}
					h.inf, h.hasInf = val, true
				case strings.HasPrefix(name, base+"_bucket"):
					if err != nil {
						t.Errorf("bad bucket value %q", line)
					}
					h.buckets = append(h.buckets, val)
				case name == base+"_count":
					if err != nil {
						t.Errorf("bad count value %q", line)
					}
					h.count = val
				}
			}
		}
	}

	for name, h := range hists {
		if !h.hasInf {
			t.Errorf("histogram %s has no +Inf bucket", name)
			continue
		}
		prev := int64(0)
		for i, v := range h.buckets {
			if v < prev {
				t.Errorf("histogram %s bucket %d not cumulative: %d < %d", name, i, v, prev)
			}
			prev = v
		}
		if h.inf < prev {
			t.Errorf("histogram %s +Inf bucket %d below last finite bucket %d", name, h.inf, prev)
		}
		if h.inf != h.count {
			t.Errorf("histogram %s +Inf bucket %d != count %d", name, h.inf, h.count)
		}
	}
}

func TestTimelineExport(t *testing.T) {
	rec := obs.New()
	_, ses := metricsText(t, rec)
	if len(ses.jobs) != 4 {
		t.Fatalf("replay recorded %d jobs, want 4", len(ses.jobs))
	}
	name := ses.jobs[0].Name

	var buf bytes.Buffer
	if err := ses.writeTimeline(&buf, name); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	var lanes []string
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			lanes = append(lanes, fmt.Sprint(ev["args"].(map[string]any)["name"]))
		}
		if ev["ph"] == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("timeline has no spans")
	}
	var sawServe, sawSched bool
	for _, l := range lanes {
		switch {
		case l == "serve/"+name:
			sawServe = true
		case l == "sched/"+name:
			sawSched = true
		case strings.HasPrefix(l, name+"/r"):
		default:
			t.Errorf("timeline leaked foreign stream %q", l)
		}
	}
	if !sawServe || !sawSched {
		t.Errorf("timeline lanes %v missing serve/ or sched/ stream", lanes)
	}

	// A session without a recorder refuses cleanly.
	plain, _, err := replaySession(metricsTrace(), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.writeTimeline(&buf, name); err != ErrNoRecorder {
		t.Errorf("timeline without recorder: err = %v, want ErrNoRecorder", err)
	}
}
