package bench

import (
	"strings"
	"testing"
)

func faultRowsForTest(t *testing.T) []FaultRow {
	t.Helper()
	rows, err := Faults(Options{PhysBudget: 1 << 14, Seed: 1})
	if err != nil {
		t.Fatalf("Faults: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	return rows
}

func findRow(t *testing.T, rows []FaultRow, name string) FaultRow {
	t.Helper()
	for _, r := range rows {
		if r.Scenario == name {
			return r
		}
	}
	t.Fatalf("scenario %q missing", name)
	return FaultRow{}
}

func TestFaultsScenarios(t *testing.T) {
	rows := faultRowsForTest(t)
	base := findRow(t, rows, "baseline")
	fail := findRow(t, rows, "failstop")
	slow := findRow(t, rows, "straggler")
	spec := findRow(t, rows, "straggler+spec")

	for _, r := range rows {
		if !r.OutputOK {
			t.Errorf("%s: output diverged from the failure-free run", r.Scenario)
		}
	}

	// A mid-map failure must cost something and be visible as recovery.
	if fail.ChunksRecovered == 0 || fail.RecoveredBytes == 0 {
		t.Errorf("failstop recovered nothing: %+v", fail)
	}
	if fail.Wall <= base.Wall {
		t.Errorf("failstop makespan %v not above baseline %v", fail.Wall, base.Wall)
	}

	// The straggler drags the job; speculation buys part of it back.
	if slow.Wall <= base.Wall {
		t.Errorf("straggler makespan %v not above baseline %v", slow.Wall, base.Wall)
	}
	if spec.Wall >= slow.Wall {
		t.Errorf("speculation did not improve the straggler makespan: %v vs %v", spec.Wall, slow.Wall)
	}
	// MapDone is not compared between the straggler rows: the no-spec run
	// is non-resilient (straggler-only plan), whose earlier end-of-map
	// declaration makes the two numbers different accounting regimes.
	if fail.MapDone <= base.MapDone {
		t.Errorf("failstop did not extend the map phase: %v vs %v", fail.MapDone, base.MapDone)
	}
	if spec.SpecLaunched == 0 || spec.SpecWon == 0 {
		t.Errorf("speculation launched=%d won=%d", spec.SpecLaunched, spec.SpecWon)
	}
}

func TestRenderFaults(t *testing.T) {
	var sb strings.Builder
	RenderFaults(&sb, faultRowsForTest(t))
	out := sb.String()
	for _, want := range []string{"failstop", "straggler+spec", "IDENTICAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table lacks %q:\n%s", want, out)
		}
	}
}
