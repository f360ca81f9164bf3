package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"time"

	gpmr "repro"
)

// The sched child: a stream of no-op-kernel jobs through gpmr.RunJobs on
// a 64-GPU cluster under WeightedFair. It runs in its own process so its
// CPU time and peak RSS are the scheduler's and the engine's alone.

// noopChunk is one chunk holding one pair. It remembers which job it
// belongs to so that the mapper can time that job on the host.
type noopChunk struct {
	job int32
	key uint32
}

func (noopChunk) Elems() int       { return 1 }
func (noopChunk) VirtBytes() int64 { return 8 }

// noopMapper emits its chunk's pair without launching a kernel, so the
// run costs only des dispatch, core's per-job spin-up and sched's
// bookkeeping. When clock is set it also stamps the host time of each
// job's first and last map call: that is when, on the host, the job was
// launched and when its last chunk was mapped.
type noopMapper struct {
	clock *jobClock
}

type jobClock struct {
	start       time.Time
	first, last []time.Duration
}

func (m noopMapper) Map(ctx *gpmr.MapContext[uint32], c gpmr.Chunk) {
	nc := c.(noopChunk)
	ctx.Emit(nc.key, 1)
	if m.clock != nil {
		now := time.Since(m.clock.start)
		if m.clock.first[nc.job] == 0 {
			m.clock.first[nc.job] = now
		}
		m.clock.last[nc.job] = now
	}
}

// noopSpecs generates n jobs: each wants 1, 2, 4 or 8 GPUs and has two
// one-pair chunks per GPU. The gang sizes are equally many of each, in a
// seeded order, so that every seed is the same amount of work. In a
// stream each job arrives 0.2–0.6 ms of virtual time after the previous
// one, which keeps the queue empty; in a burst all arrive at t=0.
func noopSpecs(seed int64, n int, burst bool, clock *jobClock) []gpmr.JobSpec {
	rng := newRNG(seed, streamSched)
	mapper := noopMapper{clock: clock}
	specs := make([]gpmr.JobSpec, n)
	gangs := make([]int, n)
	for i := range gangs {
		gangs[i] = 1 << (i % 4)
	}
	rng.Shuffle(n, func(i, j int) { gangs[i], gangs[j] = gangs[j], gangs[i] })
	var at gpmr.Time
	for i := range specs {
		if !burst {
			at += gpmr.Time(200_000 + rng.Intn(400_001)) // ns
		}
		specs[i] = gpmr.JobSpec{At: at, Job: &gpmr.Scheduled[uint32]{Job: noopJob(i, gangs[i], mapper, rng)}}
	}
	return specs
}

// noopJob is job i of a stream: two one-pair chunks per GPU, seeded keys.
func noopJob(i, gpus int, mapper noopMapper, rng *rand.Rand) *gpmr.Job[uint32] {
	chunks := make([]gpmr.Chunk, 2*gpus)
	for c := range chunks {
		chunks[c] = noopChunk{job: int32(i), key: uint32(rng.Intn(1 << 16))}
	}
	return &gpmr.Job[uint32]{
		Config:      gpmr.Config{Name: "noop-" + strconv.Itoa(i), GPUs: gpus},
		Chunks:      chunks,
		Mapper:      mapper,
		Partitioner: gpmr.RoundRobin{},
	}
}

// runNoopJobs runs the generated jobs and reports host timings and the
// digest of the rendered cluster trace. Latencies are per job, from the
// RunJobs call to the job's first (accept) and last (done) map call.
func runNoopJobs(seed int64, n int, burst bool) schedReport {
	clock := &jobClock{first: make([]time.Duration, n), last: make([]time.Duration, n)}
	t0 := time.Now()
	specs := noopSpecs(seed, n, burst, clock)
	t1 := time.Now()
	clock.start = t1
	ct, err := gpmr.RunJobs(gpmr.DefaultClusterConfig(64), gpmr.SchedPolicy{Kind: gpmr.WeightedFair}, specs)
	t2 := time.Now()
	if err != nil {
		return schedReport{Error: err.Error()}
	}
	text := ct.String()
	t3 := time.Now()
	sum := sha256.Sum256([]byte(text))
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds() * 1e3
		}
		return out
	}
	first, last := ms(clock.first), ms(clock.last)
	return schedReport{
		Jobs:        len(ct.Jobs),
		Digest:      hex.EncodeToString(sum[:]),
		GenS:        t1.Sub(t0).Seconds(),
		RunS:        t2.Sub(t1).Seconds(),
		StringS:     t3.Sub(t2).Seconds(),
		AcceptP50Ms: percentile(first, 50),
		AcceptP95Ms: percentile(first, 95),
		DoneP50Ms:   percentile(last, 50),
		DoneP95Ms:   percentile(last, 95),
	}
}
