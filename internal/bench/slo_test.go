package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// sloRows is one run of the sweep, shared by the tests that only read it
// (a sweep is most of a second).
var sloRows = sync.OnceValues(func() ([]SLORow, error) { return SLO(Options{PhysBudget: 2048, Seed: 1}) })

// TestSLOScenario sanity-checks the sweep's shape: accounting adds up
// per cell, the admission predictor actually bites somewhere (rejects or
// downgrades fire), preemption only runs in the +slo cell, and the SLO
// cell never serves interactive jobs worse than plain weighted-fair.
func TestSLOScenario(t *testing.T) {
	t.Parallel()
	rows, err := sloRows()
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	if len(rows) != len(sloGapsMs)*len(sloConfigs()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(sloGapsMs)*len(sloConfigs()))
	}
	var rejects, downs int64
	p95 := map[string]map[float64]int64{}
	for _, r := range rows {
		if r.Admitted+r.Shed+r.SLORej != SLOJobs {
			t.Errorf("%s@%vms: admit %d + shed %d + rej %d != %d offered",
				r.Config, r.GapMs, r.Admitted, r.Shed, r.SLORej, SLOJobs)
		}
		if r.Config != "weighted-fair+slo" && r.Preempts > 0 {
			t.Errorf("%s@%vms: %d preempts without the preempt policy", r.Config, r.GapMs, r.Preempts)
		}
		rejects += r.SLORej
		downs += r.Downgraded
		if p95[r.Config] == nil {
			p95[r.Config] = map[float64]int64{}
		}
		p95[r.Config][r.GapMs] = int64(r.P95Int)
	}
	if rejects == 0 {
		t.Error("no predicted-miss rejects anywhere in the sweep — admission prediction never engaged")
	}
	if downs == 0 {
		t.Error("no predicted-miss downgrades anywhere in the sweep")
	}
	for _, gap := range sloGapsMs {
		if slo, wf := p95["weighted-fair+slo"][gap], p95["weighted-fair"][gap]; slo > wf {
			t.Errorf("gap %vms: +slo interactive p95 %d worse than plain weighted-fair %d", gap, slo, wf)
		}
	}
}

// TestRenderSLO smoke-checks the table renderer.
func TestRenderSLO(t *testing.T) {
	t.Parallel()
	rows, err := sloRows()
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	var sb strings.Builder
	RenderSLO(&sb, rows)
	out := sb.String()
	for _, want := range []string{"SLO scheduling", "fifo-exclusive", "weighted-fair+slo",
		"int met", "p95 int", fmt.Sprintf("%v", sloInteractiveDeadline)} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
