package kmc

import (
	"math"
	"testing"
)

func testParams(points int64, gpus int) Params {
	return Params{Points: points, GPUs: gpus, PhysMax: 1 << 12, Centers: 8}
}

func gatherSums(t *testing.T, p Params) (map[uint32]float64, *Built, int64) {
	t.Helper()
	b := NewJob(p)
	res := b.Job.MustRun()
	got := make(map[uint32]float64)
	for i, k := range res.Output.Keys {
		got[k] += res.Output.Vals[i]
	}
	return got, b, b.Job.Config.VirtFactor
}

func checkSums(t *testing.T, got, ref map[uint32]float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%d keys, want %d", len(got), len(ref))
	}
	for k, want := range ref {
		g := got[k]
		if math.Abs(g-want) > 1e-6*(math.Abs(want)+1) {
			t.Fatalf("key %d: %g, want %g", k, g, want)
		}
	}
}

func TestCorrectnessSingleGPU(t *testing.T) {
	got, b, vf := gatherSums(t, testParams(1<<12, 1))
	checkSums(t, got, b.Reference(vf))
}

func TestCorrectnessMultiGPU(t *testing.T) {
	got, b, vf := gatherSums(t, testParams(1<<12, 4))
	checkSums(t, got, b.Reference(vf))
}

func TestVirtualScaling(t *testing.T) {
	got, b, vf := gatherSums(t, testParams(1<<20, 2))
	if vf < 2 {
		t.Fatalf("expected virtual factor > 1, got %d", vf)
	}
	checkSums(t, got, b.Reference(vf))
}

func TestPartitionerGroupsCenters(t *testing.T) {
	pt := partitioner{}
	for c := 0; c < 8; c++ {
		want := pt.Rank(keyOf(c, 0), 4)
		for s := 1; s <= dim; s++ {
			if got := pt.Rank(keyOf(c, s), 4); got != want {
				t.Errorf("center %d slot %d routed to %d, want %d", c, s, got, want)
			}
		}
	}
}

func TestNewCentersMeansPoints(t *testing.T) {
	p := testParams(1<<12, 2)
	got, b, vf := gatherSums(t, p)
	centers := NewCenters(got, p.Centers, vf)
	if len(centers) != p.Centers {
		t.Fatalf("%d centers", len(centers))
	}
	// New centers must be means of assigned points: recompute from the
	// reference sums and compare.
	ref := b.Reference(vf)
	for ci := 0; ci < p.Centers; ci++ {
		count := ref[keyOf(ci, dim)]
		for d := 0; d < dim; d++ {
			want := float32(0)
			if count > 0 {
				want = float32(ref[keyOf(ci, d)] / count)
			}
			if diff := float64(centers[ci][d] - want); math.Abs(diff) > 1e-3 {
				t.Fatalf("center %d dim %d: %f, want %f", ci, d, centers[ci][d], want)
			}
		}
	}
}

func TestMapComputeBound(t *testing.T) {
	// Paper: KMC is mostly compute-bound in Map.
	b := NewJob(Params{Points: 32 << 20, GPUs: 4, PhysMax: 1 << 12, Centers: 32})
	res := b.Job.MustRun()
	br := res.Trace.Breakdown()
	if br.Map < 0.5 {
		t.Errorf("KMC map fraction %.2f — expected map-dominated", br.Map)
	}
}

func TestDefaultsApplied(t *testing.T) {
	b := NewJob(Params{Points: 1 << 12, GPUs: 1, PhysMax: 1 << 12})
	if len(b.Centers) != 32 || len(b.Centers[0]) != 4 || len(b.Points) != 4<<12 {
		t.Errorf("defaults: centers=%d dim=%d coords=%d", len(b.Centers), len(b.Centers[0]), len(b.Points))
	}
}

// TestMappersMatchReferenceExactly holds both mappers to the oracle bit for
// bit, not within a tolerance: the grid-quantized sums are exact, so any
// point nearest assigns differently from Reference's plain loop shows up as
// an unequal float64.
func TestMappersMatchReferenceExactly(t *testing.T) {
	for _, noAccum := range []bool{false, true} {
		p := Params{Points: 1 << 14, GPUs: 4, PhysMax: 1 << 14, Seed: 7, NoAccumulation: noAccum}
		got, b, vf := gatherSums(t, p)
		ref := b.Reference(vf)
		if len(got) != len(ref) {
			t.Fatalf("noAccum=%v: %d keys, want %d", noAccum, len(got), len(ref))
		}
		for k, want := range ref {
			if got[k] != want {
				t.Errorf("noAccum=%v key %d: %v, want exactly %v", noAccum, k, got[k], want)
			}
		}
	}
}

// BenchmarkKMCRun is one 2^18-point, 4-GPU iteration at full physical
// fidelity; the map kernel's distance loop is most of it.
func BenchmarkKMCRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		built := NewJob(Params{Points: 1 << 18, GPUs: 4, PhysMax: 1 << 18})
		b.StartTimer()
		built.Job.MustRun()
	}
}
