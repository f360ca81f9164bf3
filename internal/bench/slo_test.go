package bench

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func sloOpts() Options { return Options{PhysBudget: 2048, Seed: 1} }

// sloRows is one run of the sweep at sloOpts, shared by the tests that
// only read it (a sweep is most of a second).
var sloRows = sync.OnceValues(func() ([]SLORow, error) { return SLO(sloOpts()) })

// TestSLODeterminism: the sweep is a pure function of the options — two
// runs produce identical rows (attainment counts, latencies, rejects).
func TestSLODeterminism(t *testing.T) {
	a, err := sloRows()
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	b, err := SLO(sloOpts())
	if err != nil {
		t.Fatalf("SLO (second run): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("slo sweep not deterministic:\n%v\nvs\n%v", a, b)
	}
}

// TestSLOInvariance: the sweep's rows do not depend on the kernel
// execution backend (any worker count at a fixed shard count), and all
// shard counts >= 1 agree with each other — the SLO machinery
// (admission prediction, reservation, checkpoint-preemption) is part of
// the simulation, not the harness. As everywhere in the scheduled
// stack, the legacy single engine (shards=0) is its own reference: the
// sharded scheduler's modeled launch/done latencies legitimately shift
// the schedule, but never differently for different shard counts.
func TestSLOInvariance(t *testing.T) {
	legacy, err := sloRows()
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	// The sweeps are independent; run them side by side.
	points := []struct{ workers, shards int }{{2, 0}, {0, 1}, {0, 2}, {4, 2}}
	rows := make([][]SLORow, len(points))
	t.Run("sweep", func(t *testing.T) {
		for i, p := range points {
			t.Run(fmt.Sprintf("workers=%d,shards=%d", p.workers, p.shards), func(t *testing.T) {
				t.Parallel()
				var err error
				rows[i], err = SLO(Options{PhysBudget: 2048, Seed: 1, Workers: p.workers, Shards: p.shards})
				if err != nil {
					t.Fatalf("SLO: %v", err)
				}
			})
		}
	})
	if !reflect.DeepEqual(rows[0], legacy) {
		t.Errorf("slo sweep depends on the kernel backend (workers=2, legacy engine):\n%v\nvs\n%v", rows[0], legacy)
	}
	sharded := rows[1]
	for i, p := range points[2:] {
		if got := rows[2+i]; !reflect.DeepEqual(got, sharded) {
			t.Errorf("slo sweep differs at workers=%d shards=%d from the one-shard set:\n%v\nvs\n%v",
				p.workers, p.shards, got, sharded)
		}
	}
}

// TestSLOScenario sanity-checks the sweep's shape: accounting adds up
// per cell, the admission predictor actually bites somewhere (rejects or
// downgrades fire), preemption only runs in the +slo cell, and the SLO
// cell never serves interactive jobs worse than plain weighted-fair.
func TestSLOScenario(t *testing.T) {
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
