package bench

import (
	"strings"
	"testing"
)

// fast keeps harness tests quick: small physical budgets, fewer GPU counts.
var fast = Options{PhysBudget: 1 << 12, GPUCounts: []int{1, 4, 8}}

func TestRunAllBenchmarks(t *testing.T) {
	for _, b := range Benchmarks {
		size := Fig3Sizes[b][0]
		wall, tr, err := Run(b, size, 4, fast)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if wall <= 0 || tr == nil || tr.GPUs != 4 {
			t.Errorf("%s: wall=%v trace=%v", b, wall, tr)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, _, err := Run("nope", 1, 1, fast); err == nil {
		t.Error("expected error")
	}
}

func TestFig3ShapeSIO(t *testing.T) {
	res, err := Fig3("sio", fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(Fig3Sizes["sio"]) {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 3 {
			t.Fatalf("series %s has %d points", s.Label, len(s.Points))
		}
		if s.Points[0].Efficiency < 0.999 || s.Points[0].Efficiency > 1.001 {
			t.Errorf("baseline efficiency %f != 1", s.Points[0].Efficiency)
		}
	}
	// Bigger inputs hold efficiency better at scale (Figure 3's ordering).
	small := res.Series[0].Points[2].Efficiency
	big := res.Series[len(res.Series)-1].Points[2].Efficiency
	if big <= small {
		t.Errorf("8-GPU efficiency: big input %.3f <= small input %.3f", big, small)
	}
}

func TestFig3MMScalesWell(t *testing.T) {
	res, err := Fig3("mm", Options{PhysBudget: 1 << 12, GPUCounts: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Series[len(res.Series)-1] // 16384²
	if eff := last.Points[1].Efficiency; eff < 0.7 {
		t.Errorf("MM 16384² 4-GPU efficiency %.3f — expected near-perfect", eff)
	}
}

func TestFig2RowsComplete(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("fig2 at largest datasets in -short mode")
	}
	rows, err := Fig2(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Benchmarks)*len(Fig2GPUCounts) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		b := r.Breakdown
		sum := b.Map + b.CompleteBinning + b.Sort + b.Reduce + b.Internal
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s@%d: breakdown sums to %.3f", r.Bench, r.GPUs, sum)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rows, err := Table2(fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Who wins: GPMR beats Phoenix on every benchmark at 1 GPU, and
		// 4 GPUs beat 1 GPU (the paper's headline qualitative results).
		if r.Speedup1 <= 1 {
			t.Errorf("%s: GPMR 1-GPU speedup %.2f <= 1 over Phoenix", r.Bench, r.Speedup1)
		}
		if r.Speedup4 <= r.Speedup1 {
			t.Errorf("%s: 4-GPU speedup %.2f <= 1-GPU %.2f", r.Bench, r.Speedup4, r.Speedup1)
		}
	}
	// Ordering: MM's speedup dwarfs the others; LR and SIO are the smallest.
	sp := map[string]float64{}
	for _, r := range rows {
		sp[r.Bench] = r.Speedup1
	}
	if sp["mm"] < sp["kmc"] || sp["mm"] < sp["wo"] {
		t.Errorf("MM should dominate Table 2: %+v", sp)
	}
	if sp["lr"] > sp["wo"] || sp["sio"] > sp["wo"] {
		t.Errorf("LR/SIO should trail WO: %+v", sp)
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	rows, err := Table3(fast)
	if err != nil {
		t.Fatal(err)
	}
	sp := map[string]float64{}
	for _, r := range rows {
		if r.Speedup1 <= 1 {
			t.Errorf("%s: GPMR 1-GPU speedup %.2f <= 1 over Mars", r.Bench, r.Speedup1)
		}
		if r.Speedup4 <= r.Speedup1 {
			t.Errorf("%s: no 4-GPU gain over Mars", r.Bench)
		}
		sp[r.Bench] = r.Speedup1
	}
	// KMC's accumulation-vs-monolithic-sort gap dominates Table 3.
	if sp["kmc"] < sp["mm"] || sp["kmc"] < sp["wo"] {
		t.Errorf("KMC should dominate Table 3: %+v", sp)
	}
}

func TestWeakScaling(t *testing.T) {
	pts, err := Weak("kmc", fast)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].Efficiency != 1 {
		t.Fatalf("points %+v", pts)
	}
	if pts[2].Efficiency < 0.3 {
		t.Errorf("KMC weak efficiency collapsed to %.3f at 8 GPUs", pts[2].Efficiency)
	}
}

func TestAblationDirections(t *testing.T) {
	t.Parallel()
	rows, err := Ablation(fast)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The paper's choices must win where it says they win.
	for _, name := range []string{"wo: no accumulation", "kmc: no accumulation", "lr: no accumulation", "sio: combine", "wo@64GPU: partitioner off"} {
		if r, ok := byName[name]; !ok || r.Slowdown <= 1.0 {
			t.Errorf("%s: slowdown %.2f, expected > 1 (paper's configuration should win)", name, r.Slowdown)
		}
	}
	// Partial reduction for SIO: "no speedup" — allow noise either way,
	// but it must not be a big win.
	if r := byName["sio: partial reduce"]; r.Slowdown < 0.9 {
		t.Errorf("sio partial reduce won big (%.2f), paper says no speedup", r.Slowdown)
	}
	// GPUDirect must help, not hurt.
	if r := byName["sio@64GPU: gpudirect"]; r.Slowdown > 1.0 {
		t.Errorf("gpudirect slower: %.2f", r.Slowdown)
	}
}

func TestTable4Counts(t *testing.T) {
	root := repoRoot(t)
	rows, err := Table4(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GPMR <= 0 || r.Phoenix <= 0 || r.Mars <= 0 {
			t.Errorf("%s: zero counts %+v", r.Bench, r)
		}
	}
}

// TestTable4FromPackageDir runs the registry's table4 entry from go test's
// working directory, the package directory: it finds the repository root
// itself and prints what Table4 of the root renders. Outside any checkout
// the error names the directory the search started from.
func TestTable4FromPackageDir(t *testing.T) {
	var got, want strings.Builder
	for _, e := range Experiments {
		if e.Name == "table4" {
			if err := e.Run(&got, Options{}); err != nil {
				t.Fatalf("table4 from the package directory: %v", err)
			}
		}
	}
	rows, err := Table4(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	RenderTable4(&want, rows)
	if got.String() != want.String() {
		t.Fatalf("table4 from the package directory:\n%s\nTable4(repoRoot):\n%s", got.String(), want.String())
	}

	outside := t.TempDir()
	t.Chdir(outside)
	if _, err := findRepoRoot(); err == nil || !strings.Contains(err.Error(), outside) {
		t.Fatalf("findRepoRoot outside the checkout: %v, want an error naming %s", err, outside)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	res, err := Fig3("lr", Options{PhysBudget: 1 << 12, GPUCounts: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 3") || !strings.Contains(sb.String(), "Table 1") {
		t.Error("renderers produced no headings")
	}
}
