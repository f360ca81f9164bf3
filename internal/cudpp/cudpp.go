// Package cudpp provides the two data-parallel primitives GPMR prices —
// radix sort and segment extraction — standing in for the CUDA
// Data-Parallel Primitives library the paper uses, plus the scan the
// Mars baseline charges.
//
// Each primitive has a pure functional core (exact results, testable
// against naive references) and a cost spec or device wrapper that
// charges the simulated GPU a cost derived from the primitive's real
// memory-traffic structure. The radix sort is costed as CUDPP's 4-bit-digit
// LSD sort (8 passes of histogram + scan + scatter over 32-bit keys), which
// lands near the ~100–140 M pairs/s measured on GT200 by Satish et al. —
// the throughput regime that makes Sort the single-GPU bottleneck for the
// paper's SparseIntegerOccurrence benchmark.
package cudpp

import (
	"repro/internal/des"
	"repro/internal/gpu"
)

// scanSpec models a work-efficient GPU scan over n virtual elements of
// elemBytes each: ~2 reads + 1 write per element across the up/down sweeps.
func scanSpec(name string, n int64, elemBytes int64) gpu.KernelSpec {
	return gpu.KernelSpec{
		Name:           name,
		Threads:        n,
		FlopsPerThread: 2,
		BytesRead:      float64(2 * n * elemBytes),
		BytesWritten:   float64(n * elemBytes),
	}
}

// DeviceScan charges the device for a scan of virtN elements and runs fn as
// the functional payload. It returns the simulated duration.
func DeviceScan(p *des.Proc, d *gpu.Device, virtN int64, fn func()) des.Time {
	return d.Launch(p, scanSpec("cudpp.scan", virtN, 4), fn)
}

const (
	radixDigitBits = 4 // CUDPP's digit width on GT200
	radixPasses    = 32 / radixDigitBits
)

// SortPairs sorts keys ascending, permuting vals identically, using an LSD
// radix sort. It is stable. The functional implementation uses 8-bit digits
// for host speed; the device cost is charged for the 4-bit CUDPP structure.
func SortPairs[V any](keys []uint32, vals []V) {
	if len(keys) != len(vals) {
		panic("cudpp: keys/vals length mismatch")
	}
	n := len(keys)
	if n < 2 {
		return
	}
	tmpK := make([]uint32, n)
	tmpV := make([]V, n)
	var count [256]int
	for shift := 0; shift < 32; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range keys {
			count[(k>>shift)&0xff]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for i, k := range keys {
			d := (k >> shift) & 0xff
			tmpK[count[d]] = k
			tmpV[count[d]] = vals[i]
			count[d]++
		}
		copy(keys, tmpK)
		copy(vals, tmpV)
	}
}

// SortPairsCost returns the modeled device time to radix-sort virtN pairs
// whose values occupy valBytes each (keys are 4 bytes).
func SortPairsCost(pr gpu.Props, virtN int64, valBytes int64) des.Time {
	var total des.Time
	for pass := 0; pass < radixPasses; pass++ {
		hist := gpu.KernelSpec{
			Name:           "cudpp.sort.hist",
			Threads:        virtN,
			FlopsPerThread: 2,
			BytesRead:      float64(virtN * 4),
		}
		scan := scanSpec("cudpp.sort.scan", 1<<radixDigitBits*512, 4) // per-block digit counts
		scatter := gpu.KernelSpec{
			Name:             "cudpp.sort.scatter",
			Threads:          virtN,
			FlopsPerThread:   4,
			BytesRead:        float64(virtN * (4 + valBytes)),
			UncoalescedBytes: float64(virtN*(4+valBytes)) / 2, // scattered writes, partial locality
		}
		total += hist.Cost(pr) + scan.Cost(pr) + scatter.Cost(pr)
	}
	return total
}

// Segment describes one run of equal keys in a sorted pair buffer: values
// vals[Start:Start+Count] all carry Key.
type Segment struct {
	Key   uint32
	Start int
	Count int
}

// Segments extracts the unique-key runs from sorted keys. It panics if keys
// are not sorted (a cheap invariant check that has caught pipeline bugs).
func Segments(keys []uint32) []Segment {
	if len(keys) == 0 {
		return nil
	}
	// Count the runs first (the same pass checks the order), so the
	// descriptors are allocated once at their exact size.
	runs := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			if keys[i] < keys[i-1] {
				panic("cudpp: Segments called on unsorted keys")
			}
			runs++
		}
	}
	segs := make([]Segment, 0, runs)
	start := 0
	for i := 1; i <= len(keys); i++ {
		if i == len(keys) || keys[i] != keys[start] {
			segs = append(segs, Segment{Key: keys[start], Start: start, Count: i - start})
			start = i
		}
	}
	return segs
}

// SegmentsCost is the device cost of the flag + scan + compact sequence
// that builds segment descriptors for virtN sorted pairs.
func SegmentsCost(pr gpu.Props, virtN int64) des.Time {
	flag := gpu.KernelSpec{
		Name:           "cudpp.segflag",
		Threads:        virtN,
		FlopsPerThread: 2,
		BytesRead:      float64(virtN * 4),
		BytesWritten:   float64(virtN),
	}
	return flag.Cost(pr) + scanSpec("cudpp.segscan", virtN, 4).Cost(pr)
}

// DeviceSegments extracts segments functionally and charges the modeled
// cost for virtN virtual pairs.
func DeviceSegments(p *des.Proc, d *gpu.Device, keys []uint32, virtN int64) ([]Segment, des.Time) {
	var segs []Segment
	cost := SegmentsCost(d.Props, virtN)
	d.LaunchForNamed(p, "cudpp.segments", cost, func() {
		segs = Segments(keys)
	})
	return segs, cost
}
