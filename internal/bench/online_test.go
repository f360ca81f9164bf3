package bench

import (
	"strings"
	"sync"
	"testing"
)

// onlineRows is one run of the sweep, shared by the tests that only read
// it.
var onlineRows = sync.OnceValues(func() ([]OnlineRow, error) { return Online(Options{PhysBudget: 2048, Seed: 1}) })

// TestOnlineScenario sanity-checks the open-system shape: accounting adds
// up per cell, percentiles are ordered, and admission control actually
// bites — every policy sheds under the tightest load, and no policy
// rejects more when load is lightest than when it is heaviest.
func TestOnlineScenario(t *testing.T) {
	t.Parallel()
	rows, err := onlineRows()
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	if len(rows) != len(onlineGapsMs)*3 {
		t.Fatalf("got %d rows, want %d", len(rows), len(onlineGapsMs)*3)
	}
	rejectsAt := map[string]map[float64]int64{}
	for _, r := range rows {
		if r.Admitted+r.Shed+r.Quota != int64(r.Jobs) {
			t.Errorf("%s@%vms: admit %d + shed %d + quota %d != %d offered",
				r.Policy, r.GapMs, r.Admitted, r.Shed, r.Quota, r.Jobs)
		}
		if r.P95 < r.P50 {
			t.Errorf("%s@%vms: p95 %v < p50 %v", r.Policy, r.GapMs, r.P95, r.P50)
		}
		if rejectsAt[r.Policy] == nil {
			rejectsAt[r.Policy] = map[float64]int64{}
		}
		rejectsAt[r.Policy][r.GapMs] = r.Shed + r.Quota
	}
	loosest, tightest := onlineGapsMs[0], onlineGapsMs[len(onlineGapsMs)-1]
	for pol, byGap := range rejectsAt {
		if byGap[tightest] == 0 {
			t.Errorf("%s: no rejects at the tightest load — admission control never engaged", pol)
		}
		if byGap[loosest] > byGap[tightest] {
			t.Errorf("%s: more rejects at light load (%d) than heavy (%d)", pol, byGap[loosest], byGap[tightest])
		}
	}
}

// TestRenderOnline smoke-checks the table renderer.
func TestRenderOnline(t *testing.T) {
	t.Parallel()
	rows, err := onlineRows()
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	var sb strings.Builder
	RenderOnline(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Open-system serving", "fifo-exclusive", "fixed-share", "weighted-fair", "p95 lat"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
