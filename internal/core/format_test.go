package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/keyval"
)

// checkFormat compares appendValue with fmt's %v for each value.
func checkFormat[V any](t *testing.T, vals ...V) {
	t.Helper()
	var scratch [32]byte
	for _, v := range vals {
		if got, want := string(appendValue(scratch[:0], v)), fmt.Sprintf("%v", v); got != want {
			t.Errorf("%T: appendValue = %q, %%v = %q", v, got, want)
		}
	}
}

// TestAppendValueMatchesFmt is where the digest and render contract — a
// value's bytes are exactly fmt's %v bytes — is pinned, type by type.
func TestAppendValueMatchesFmt(t *testing.T) {
	checkFormat[uint32](t, 0, 1, 255, 256, 1e6, math.MaxUint32)
	checkFormat[uint64](t, 0, 1, math.MaxUint32, math.MaxUint64)
	checkFormat[int](t, 0, 1, -1, math.MaxInt, math.MinInt)
	checkFormat[int64](t, 0, 1, -1, math.MaxInt64, math.MinInt64)
	negZero := math.Copysign(0, -1)
	checkFormat[float64](t, 0, negZero, 1, -1, 0.1, 0.30000000000000004, 1e6, 1e20, 1e21, 1e-4, 1e-5,
		123456, 1234567, 100000, 2.5e-7, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308)
	checkFormat[float32](t, 0, float32(negZero), 1, -1, 0.1, 1e6, 1e20, 1e21, 1e-4, 1e-5,
		123456, 1234567, 16777216, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, math.SmallestNonzeroFloat32, 1.1754944e-38, 1.1754942e-38)

	rng := rand.New(rand.NewSource(23))
	f64 := make([]float64, 100000)
	f32 := make([]float32, len(f64))
	for i := range f64 {
		f64[i] = math.Float64frombits(rng.Uint64())
		f32[i] = math.Float32frombits(rng.Uint32())
	}
	checkFormat(t, f64...)
	checkFormat(t, f32...)

	// Any other value type renders through fmt itself.
	type point struct {
		X, Y float32
		Tag  string
	}
	checkFormat(t, point{1.5, -2, "a b"}, point{})
	checkFormat(t, []float32{1, 2.5}, []float32(nil))
}

func goldenUint32() *Result[uint32] {
	return &Result[uint32]{
		Output: pairs([]uint32{0, 7, math.MaxUint32}, []uint32{0, 1000000, math.MaxUint32}),
		PerRank: []keyval.Pairs[uint32]{
			pairs([]uint32{0, 7}, []uint32{0, 1000000}),
			{},
			pairs([]uint32{math.MaxUint32}, []uint32{math.MaxUint32}),
		},
	}
}

func goldenFloat64() *Result[float64] {
	x, y := 0.1, 0.2
	return &Result[float64]{
		Output: pairs([]uint32{3, 4, 5, 6}, []float64{x + y, 1e21, -2.5e-7, 4194304}),
		PerRank: []keyval.Pairs[float64]{
			pairs([]uint32{3, 4}, []float64{x + y, 1e21}),
			pairs([]uint32{5, 6, 9}, []float64{-2.5e-7, 4194304, math.Inf(-1)}),
		},
	}
}

// TestDigestAndRenderGolden pins the hashed and rendered bytes of two fixed
// results. Both goldens were generated by the per-pair fmt implementation
// PR 23 replaced; recorded arrival traces carry digests, so these must
// never change.
func TestDigestAndRenderGolden(t *testing.T) {
	render := func(r Runnable) string {
		var sb strings.Builder
		if err := r.RenderOutput(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	u, f := goldenUint32(), goldenFloat64()
	if got, want := u.Digest(), uint64(0x4f8712d361c2df0a); got != want {
		t.Errorf("Result[uint32] digest %#016x, want %#016x", got, want)
	}
	if got, want := f.Digest(), uint64(0x41222008beaee125); got != want {
		t.Errorf("Result[float64] digest %#016x, want %#016x", got, want)
	}
	wantU := "out 0 0\nout 7 1000000\nout 4294967295 4294967295\n" +
		"r0 0 0\nr0 7 1000000\nr2 4294967295 4294967295\n"
	if got := render(&Scheduled[uint32]{Result: u}); got != wantU {
		t.Errorf("Result[uint32] renders\n%q\nwant\n%q", got, wantU)
	}
	wantF := "out 3 0.30000000000000004\nout 4 1e+21\nout 5 -2.5e-07\nout 6 4.194304e+06\n" +
		"r0 3 0.30000000000000004\nr0 4 1e+21\nr1 5 -2.5e-07\nr1 6 4.194304e+06\nr1 9 -Inf\n"
	if got := render(&Scheduled[float64]{Result: f}); got != wantF {
		t.Errorf("Result[float64] renders\n%q\nwant\n%q", got, wantF)
	}
}

// benchResult is a 2 048-pair output, the size of a default serve-catalog
// WO job's, gathered and in four partitions.
func benchResult[V any](val func(i int) V) *Result[V] {
	const n = 2048
	r := &Result[V]{PerRank: make([]keyval.Pairs[V], 4)}
	for i := 0; i < n; i++ {
		r.Output.Append(uint32(i), val(i))
		r.PerRank[i%4].Append(uint32(i), val(i))
	}
	return r
}

func BenchmarkDigest(b *testing.B) {
	u := benchResult(func(i int) uint32 { return uint32(i * 7919) })
	f := benchResult(func(i int) float64 { return float64(i) * 1.0009765625 })
	b.Run("uint32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.Digest()
		}
	})
	b.Run("float64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Digest()
		}
	})
}

func BenchmarkRender(b *testing.B) {
	s := &Scheduled[uint32]{Result: benchResult(func(i int) uint32 { return uint32(i * 7919) })}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.RenderOutput(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
