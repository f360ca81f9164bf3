package cudpp

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/gpu"
)

func TestSortPairsBasic(t *testing.T) {
	keys := []uint32{5, 3, 5, 1, 0xffffffff, 0}
	vals := []string{"a", "b", "c", "d", "e", "f"}
	SortPairs(keys, vals)
	wantK := []uint32{0, 1, 3, 5, 5, 0xffffffff}
	wantV := []string{"f", "d", "b", "a", "c", "e"}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Errorf("pos %d: (%d,%q), want (%d,%q)", i, keys[i], vals[i], wantK[i], wantV[i])
		}
	}
}

func TestSortPairsStability(t *testing.T) {
	// Equal keys must keep their original relative order.
	keys := make([]uint32, 1000)
	vals := make([]int, 1000)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = uint32(rng.Intn(10))
		vals[i] = i
	}
	SortPairs(keys, vals)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] && vals[i] < vals[i-1] {
			t.Fatalf("instability at %d: key %d, vals %d then %d", i, keys[i], vals[i-1], vals[i])
		}
	}
}

func TestSortPairsMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SortPairs([]uint32{1, 2}, []int{1})
}

func TestPropertySortMatchesStdlib(t *testing.T) {
	f := func(raw []uint32) bool {
		keys := append([]uint32(nil), raw...)
		vals := make([]uint32, len(keys))
		copy(vals, keys)
		SortPairs(keys, vals)
		ref := append([]uint32(nil), raw...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := range keys {
			if keys[i] != ref[i] || vals[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSegments(t *testing.T) {
	segs := Segments([]uint32{1, 1, 2, 5, 5, 5})
	want := []Segment{{1, 0, 2}, {2, 2, 1}, {5, 3, 3}}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments", len(segs))
	}
	for i, s := range want {
		if segs[i] != s {
			t.Errorf("seg[%d]=%+v, want %+v", i, segs[i], s)
		}
	}
}

func TestSegmentsEmpty(t *testing.T) {
	if segs := Segments(nil); segs != nil {
		t.Errorf("got %v", segs)
	}
}

func TestSegmentsUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Segments([]uint32{2, 1})
}

func TestPropertySegmentsPartition(t *testing.T) {
	// Segments must tile [0,n) exactly, with strictly increasing keys.
	f := func(raw []uint32) bool {
		keys := append([]uint32(nil), raw...)
		SortPairs(keys, make([]struct{}, len(keys)))
		segs := Segments(keys)
		pos := 0
		var prev uint32
		for i, s := range segs {
			if s.Start != pos || s.Count <= 0 {
				return false
			}
			if i > 0 && s.Key <= prev {
				return false
			}
			for j := s.Start; j < s.Start+s.Count; j++ {
				if keys[j] != s.Key {
					return false
				}
			}
			prev = s.Key
			pos += s.Count
		}
		return pos == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortCostCalibration(t *testing.T) {
	// GT200 radix sort of 32M 8-byte pairs should land in the 100–350 ms
	// band (Satish et al. measured ~110–240 ms depending on value size).
	pr := gpu.GT200()
	cost := SortPairsCost(pr, 32<<20, 4)
	if cost < 100*des.Millisecond || cost > 350*des.Millisecond {
		t.Errorf("32M-pair sort cost %v outside calibration band", cost)
	}
	// Cost must scale roughly linearly.
	double := SortPairsCost(pr, 64<<20, 4)
	ratio := float64(double) / float64(cost)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("sort cost scaling %.2f, want ~2", ratio)
	}
}

// TestDeviceSortOccupiesCompute: a sort launched the way the pipeline
// launches it — SortPairs under its modeled cost — holds the device for
// exactly that cost and leaves the pairs sorted.
func TestDeviceSortOccupiesCompute(t *testing.T) {
	eng := des.NewEngine()
	link := des.NewResource(eng, "pcie", 1)
	d := gpu.NewDevice(eng, 0, gpu.GT200(), link, gpu.PCIeGen2x16())
	keys := []uint32{3, 1, 2}
	vals := []int{30, 10, 20}
	cost := SortPairsCost(d.Props, 1<<20, 4)
	var dur des.Time
	eng.Spawn("sorter", func(p *des.Proc) {
		dur = d.LaunchForNamed(p, "cudpp.sortpairs", cost, func() { SortPairs(keys, vals) })
	})
	end := eng.Run()
	if dur != cost || end != cost {
		t.Errorf("sort took %v and ended at %v, want the modeled cost %v", dur, end, cost)
	}
	if keys[0] != 1 || vals[0] != 10 || keys[2] != 3 || vals[2] != 30 {
		t.Errorf("sorted: %v %v", keys, vals)
	}
}

func TestDeviceSegmentsFunctional(t *testing.T) {
	eng := des.NewEngine()
	link := des.NewResource(eng, "pcie", 1)
	d := gpu.NewDevice(eng, 0, gpu.GT200(), link, gpu.PCIeGen2x16())
	var segs []Segment
	eng.Spawn("seg", func(p *des.Proc) {
		segs, _ = DeviceSegments(p, d, []uint32{7, 7, 9}, 3)
	})
	eng.Run()
	if len(segs) != 2 || segs[0].Count != 2 || segs[1].Key != 9 {
		t.Errorf("segments %v", segs)
	}
}

func BenchmarkSortPairs1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]uint32, 1<<20)
	for i := range base {
		base[i] = rng.Uint32()
	}
	keys := make([]uint32, len(base))
	vals := make([]uint32, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		copy(vals, base)
		SortPairs(keys, vals)
	}
	b.SetBytes(int64(len(base) * 8))
}
