package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestExplainPartitionsLatency is the acceptance gate for the explain
// endpoint on the one engine every program runs: every job's breakdown
// must (a) partition the job's end-to-end latency exactly — contiguous
// phases whose durations sum to it — and (b) be byte-identical, in both
// JSON and text renderings, across two replays of the same trace.
func TestExplainPartitionsLatency(t *testing.T) {
	tr := metricsTrace()
	tr.Events[0].Arrive.TraceID = "f7"

	var golden string
	var ses *session
	for run := 1; run <= 2; run++ {
		var err error
		ses, _, err = replaySession(tr, ReplayOptions{Obs: obs.New()})
		if err != nil {
			t.Fatalf("replay %d: %v", run, err)
		}
		var b strings.Builder
		for _, info := range ses.jobs {
			ex, err := ses.explain(info.Name)
			if err != nil {
				t.Fatalf("replay %d: explain %s: %v", run, info.Name, err)
			}
			var sum int64
			cur := ex.ArrivalNs
			for _, p := range ex.Phases {
				if p.StartNs != cur {
					t.Errorf("%s: phase %q starts at %d, previous ended at %d", info.Name, p.Name, p.StartNs, cur)
				}
				cur = p.EndNs
				sum += p.DurNs
			}
			if sum != ex.LatencyNs {
				t.Errorf("%s: phases sum to %d, latency %d", info.Name, sum, ex.LatencyNs)
			}
			if cur != ex.FinishNs {
				t.Errorf("%s: phases end at %d, finish %d", info.Name, cur, ex.FinishNs)
			}
			j, err := json.Marshal(ex)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(j)
			b.WriteByte('\n')
			b.WriteString(ex.String())
		}
		if golden == "" {
			golden = b.String()
		} else if b.String() != golden {
			t.Errorf("explanations differ between replays:\n--- first\n%s\n--- second\n%s", golden, b.String())
		}
	}

	// The trace ID threads through: job record and explanation both echo
	// the submission's stamp.
	if got := ses.jobs[0].TraceID; got != "f7" {
		t.Errorf("job TraceID = %q, want f7", got)
	}
	ex, err := ses.explain(ses.jobs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if ex.TraceID != "f7" {
		t.Errorf("explanation TraceID = %q, want f7", ex.TraceID)
	}
	if ex.State != "done" || len(ex.Phases) != 7 {
		t.Errorf("placed job explanation: %+v", ex)
	}

	// Without a recorder, explain refuses cleanly.
	plain, _, err := replaySession(metricsTrace(), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.explain(plain.jobs[0].Name); err != ErrNoRecorder {
		t.Errorf("explain without recorder: err = %v, want ErrNoRecorder", err)
	}
}
