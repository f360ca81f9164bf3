package bench

import (
	"bytes"
	"testing"

	"repro/internal/apps/sio"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/workload"
)

// stressWorkers oversubscribes the host so pooled kernels genuinely
// contend for cores and the race detector sees as many concurrent
// closure pairs as possible.
const stressWorkers = -1 // pool(GOMAXPROCS)

// TestPoolRaceStressInvarianceMatrix reruns the output-invariance matrix
// — every combination of GPU count, steal policy and GPUDirect, with
// placement skewed so stealing genuinely runs — on the pooled
// backend, comparing each cell byte-for-byte against its serial twin.
// Under `go test -race -tags identity` (the CI race job, which runs the
// whole matrix) this doubles as the data-race stress for the
// closure-capture contract: every cell runs map/partition/sort/reduce
// closures from up to 8 simulated GPUs concurrently on real cores.
func TestPoolRaceStressInvarianceMatrix(t *testing.T) {
	for _, app := range invarianceApps {
		t.Run(app.name, func(t *testing.T) {
			for _, pt := range invarianceMatrix() {
				if !bytes.Equal(app.run(t, pt, 0), app.run(t, pt, stressWorkers)) {
					t.Errorf("%+v: pooled output diverges from serial", pt)
				}
			}
		})
	}
}

// jitterPlan derates every rank by a seeded pseudo-random straggler
// factor starting at a seeded time: kernel costs stretch unevenly, the
// simulated overlap pattern shifts, and the host-side join order of
// pooled closures is scrambled run to run — scheduling pressure on the
// dispatch/join protocol without changing what any kernel computes.
func jitterPlan(seed uint64, gpus int) *fault.Plan {
	rng := workload.NewRNG(seed)
	var evs []fault.Event
	for r := 0; r < gpus; r++ {
		factor := 1 + rng.Float64()/2 // 1.0–1.5x slower
		at := des.Time(rng.Intn(int(2 * des.Millisecond)))
		evs = append(evs, fault.SlowdownAt(r, at, factor))
	}
	return &fault.Plan{Events: evs}
}

// FuzzPoolJitter is the seeded backend-scheduling fuzz: random kernel
// cost jitter (per-rank straggler derating at random times) reorders the
// pool's join pressure, and the canonical output must still match the
// jitter-free serial baseline. The seed corpus runs on every `go test`;
// fuzzing explores further schedules.
func FuzzPoolJitter(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 1 << 33} {
		f.Add(seed)
	}
	baseline := func(t *testing.T) []byte {
		job, _ := sio.NewJob(sio.Params{Elements: 4 << 20, GPUs: 8, Seed: 9, PhysMax: 1 << 13, ChunkCap: 1 << 19})
		return canonBytes(t, job.MustRun().PerRank)
	}
	var want []byte
	f.Fuzz(func(t *testing.T, seed uint64) {
		if want == nil {
			want = baseline(t)
		}
		job, _ := sio.NewJob(sio.Params{Elements: 4 << 20, GPUs: 8, Seed: 9, PhysMax: 1 << 13, ChunkCap: 1 << 19})
		job.Config.Workers = stressWorkers
		job.Config.StealPolicy = core.StealLocalFirst // derates starve ranks: steal under jitter
		job.Config.Faults = jitterPlan(seed, 8)
		got := canonBytes(t, job.MustRun().PerRank)
		if !bytes.Equal(got, want) {
			t.Errorf("seed %#x: jittered pooled output diverges from jitter-free serial baseline", seed)
		}
	})
}
