package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Seeded input generators. The system under test sees only what these
// produce; the same seed gives byte-identical inputs.

// Each generator draws from its own stream so that changing one count
// never shifts another generator's values.
const (
	streamArrivals = iota + 1
	streamJobs
	streamReads
	streamSample
	streamSched
	streamOrder
)

func newRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// arrivalSchedule returns n due times (offsets from the phase start) at
// a fixed rate: arrival i is due at (i + u)/rate seconds, u a seeded draw
// from [0, 0.2). The spacing is even on purpose. With Poisson gaps the
// burstiness of 800 arrivals differs so much from one seed to the next
// that it moved the 95th percentiles by 30%, more than any host-side
// change the benchmark is meant to show.
func arrivalSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := newRNG(seed, streamArrivals)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + 0.2*rng.Float64()) / rate * float64(time.Second))
	}
	return due
}

var catalogKinds = []string{"wo", "kmc", "sio"}

// jobBodies returns the POST /jobs bodies of jobs first..first+n-1 of a
// session: catalog kinds round-robin with default parameters, a workload
// seed that is unique within the session, and one of `tenants` tenants.
// The workload seeds of each kind are always first+1..first+n, each with
// the same tenant; the benchmark's seed decides which position of the
// kind gets which. Every benchmark seed therefore submits the same set of
// jobs in another order: what a job costs depends on its workload seed (a
// wo job builds a perfect hash of a seeded dictionary) and, behind the
// router, on the shard its tenant hashes to, and with free seeds the 95th
// percentiles differed by a quarter between two benchmark seeds while
// repeating within 1% at one.
func jobBodies(seed int64, first, n, tenants int) [][]byte {
	rng := newRNG(seed+int64(first)*7919, streamJobs)
	jobSeed := make([]int, n)
	kinds := len(catalogKinds)
	for c := 0; c < kinds; c++ {
		var ofKind []int
		for k := c; k < n; k += kinds {
			ofKind = append(ofKind, first+k+1)
		}
		rng.Shuffle(len(ofKind), func(i, j int) { ofKind[i], ofKind[j] = ofKind[j], ofKind[i] })
		for i, k := 0, c; k < n; i, k = i+1, k+kinds {
			jobSeed[k] = ofKind[i]
		}
	}
	out := make([][]byte, n)
	for k := range out {
		out[k] = []byte(fmt.Sprintf(`{"tenant":"t%d","kind":%q,"params":{"seed":%d}}`,
			jobSeed[k]/kinds%tenants, catalogKinds[k%kinds], jobSeed[k]))
	}
	return out
}

// readKind is one endpoint of the read mix.
type readKind int

const (
	readJob readKind = iota
	readMetrics
	readExplain
	readTimeline
	readList
	readFlight
	numReadKinds
)

var readKindNames = [numReadKinds]string{"get_job", "metrics", "explain", "timeline", "list", "flight"}

// readMixPercent is the fixed mix: 60% GET /jobs/{id}, 20% /metrics,
// 10% explain, 5% timeline, 4% /jobs, 1% /flight.
var readMixPercent = [numReadKinds]int{60, 20, 10, 5, 4, 1}

type readReq struct {
	Kind readKind
	Job  int // index into the populated jobs, for the per-job endpoints
}

// readMix returns n requests in the fixed proportions (exact per block of
// 100, seeded order) against `jobs` populated jobs.
func readMix(seed int64, n, jobs int) []readReq {
	rng := newRNG(seed, streamReads)
	block := make([]readKind, 0, 100)
	for k, pct := range readMixPercent {
		for i := 0; i < pct; i++ {
			block = append(block, readKind(k))
		}
	}
	out := make([]readReq, 0, n)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if len(out) == n {
				break
			}
			out = append(out, readReq{Kind: k, Job: rng.Intn(jobs)})
		}
	}
	return out
}

// sampleOneIn returns which of n items a seeded 1-in-k sample keeps (at
// least one when n > 0).
func sampleOneIn(seed int64, n, k int) []bool {
	rng := newRNG(seed, streamSample)
	keep := make([]bool, n)
	kept := false
	for i := range keep {
		if rng.Intn(k) == 0 {
			keep[i], kept = true, true
		}
	}
	if !kept && n > 0 {
		keep[rng.Intn(n)] = true
	}
	return keep
}
