package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It sorts a copy; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	// The small allowance keeps a product such as 0.95*200, which floating
	// point puts a hair above 190, from being rounded up to rank 191.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highestPercentile picks, from the candidates (ascending), the highest
// percentile with at least ten samples beyond its rank — the highest one
// the sample supports. It returns 50 when none qualifies.
func highestPercentile(n int, candidates []float64) float64 {
	best := 50.0
	for _, p := range candidates {
		if n-nearestRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// median is the conventional median (mean of the middle pair for even
// counts), used for set-up repeats and for -compare; latency percentiles
// use nearest-rank.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is what
// the acceptance check uses. Fewer than two samples have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
