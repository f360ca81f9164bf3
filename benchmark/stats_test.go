package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6} // 1..10 shuffled
	cases := []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {25, 3},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("percentile of one sample = %g, want 42", got)
	}
	if xs[0] != 7 {
		t.Error("percentile sorted its input in place")
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	candidates := []float64{90, 95, 99, 99.9}
	cases := []struct {
		n    int
		want float64
	}{
		{15, 50},      // p90's rank is 14: one sample beyond
		{100, 90},     // p90 leaves 10 beyond, p95 only 5
		{200, 95},     // p95 leaves 10, p99 leaves 2
		{800, 95},     // p99's rank is 792: 8 beyond
		{1000, 99},    // p99 leaves exactly 10
		{10000, 99.9}, // p99.9 leaves exactly 10
	}
	for _, c := range cases {
		if got := highestPercentile(c.n, candidates); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, want %g", got, want)
	}
	// quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if got, want := quartileSpread([]float64{40, 10, 20}), 30.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(10,20,40) = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}
