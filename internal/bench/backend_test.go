package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/mm"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/core"
	"repro/internal/fault"
)

// backendPoints are the execution backends the differential matrix pits
// against each other: Serial (the reference semantics), Pool(1) (async
// dispatch with no real concurrency — isolates the dispatch/join protocol),
// and Pool(GOMAXPROCS) (full host-core concurrency).
func backendPoints() []int { return []int{0, 1, -1} }

func backendName(workers int) string {
	switch {
	case workers == 0:
		return "serial"
	case workers < 0:
		return "pool(numcpu)"
	default:
		return fmt.Sprintf("pool(%d)", workers)
	}
}

// backendRun is one cell's observable outcome: the job's canonical result
// bytes and its traces. The differential harness demands both be
// identical across backends — a trace holds every rank's stage stamps,
// steal, fault and recovery counters and byte counters, so equality pins
// the entire DES schedule, not just the answer.
type backendRun struct {
	result []byte
	trace  []core.Trace
}

// diffApps is the app matrix of the backend differential harness. Each
// entry runs one app at an explicit backend (workers) and reports its
// canonical observables.
var diffApps = []struct {
	name string
	run  func(t *testing.T, gpus, workers int) backendRun
}{
	{"wo", func(t *testing.T, gpus, workers int) backendRun {
		b := wo.NewJob(wo.Params{Bytes: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 14, DictSize: 1000, ChunkCap: 1 << 18})
		b.Job.Config.Workers = workers
		res := b.Job.MustRun()
		return backendRun{result: canonBytes(t, res.PerRank), trace: []core.Trace{*res.Trace}}
	}},
	{"sio", func(t *testing.T, gpus, workers int) backendRun {
		job, _ := sio.NewJob(sio.Params{Elements: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 14, ChunkCap: 1 << 19})
		job.Config.Workers = workers
		res := job.MustRun()
		return backendRun{result: canonBytes(t, res.PerRank), trace: []core.Trace{*res.Trace}}
	}},
	{"kmc", func(t *testing.T, gpus, workers int) backendRun {
		b := kmc.NewJob(kmc.Params{Points: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 12})
		b.Job.Config.Workers = workers
		res := b.Job.MustRun()
		return backendRun{result: canonBytes(t, res.PerRank), trace: []core.Trace{*res.Trace}}
	}},
	{"lr", func(t *testing.T, gpus, workers int) backendRun {
		b := lr.NewJob(lr.Params{Points: 4 << 20, GPUs: gpus, Seed: 1, PhysMax: 1 << 12})
		b.Job.Config.Workers = workers
		res := b.Job.MustRun()
		return backendRun{result: canonBytes(t, res.PerRank), trace: []core.Trace{*res.Trace}}
	}},
	{"mm", func(t *testing.T, gpus, workers int) backendRun {
		b, err := mm.New(mm.Params{Dim: 1024, GPUs: gpus, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		b.Job1.Config.Workers = workers
		perRank, tr1, tr2, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		return backendRun{result: mmCanonBytes(t, perRank), trace: []core.Trace{*tr1, *tr2}}
	}},
}

// TestBackendDifferentialMatrix is the differential identity harness:
// every app (WO, SIO, KMC, MM, LR) at 1, 4, and 8 GPUs must produce
// byte-identical results and identical traces on the Serial,
// Pool(1), and Pool(NumCPU) backends. The pool moves kernels' functional
// work onto concurrent host goroutines; nothing observable may change.
// Tier-1 runs one cell per app, 8 GPUs on Pool(NumCPU) against Serial;
// the identity build tag runs the whole matrix.
func TestBackendDifferentialMatrix(t *testing.T) {
	gpuCounts, backends := []int{8}, []int{0, -1}
	if full {
		gpuCounts, backends = []int{1, 4, 8}, backendPoints()
	}
	for _, app := range diffApps {
		t.Run(app.name, func(t *testing.T) {
			for _, gpus := range gpuCounts {
				var want backendRun
				for _, workers := range backends {
					got := app.run(t, gpus, workers)
					if len(got.result) == 0 {
						t.Fatalf("%d GPUs, %s: empty result", gpus, backendName(workers))
					}
					if workers == 0 {
						want = got
						continue
					}
					if !bytes.Equal(got.result, want.result) {
						t.Errorf("%d GPUs: %s result bytes diverge from serial", gpus, backendName(workers))
					}
					if !reflect.DeepEqual(got.trace, want.trace) {
						t.Errorf("%d GPUs: %s trace diverges from serial:\n--- serial\n%+v\n--- %s\n%+v",
							gpus, backendName(workers), want.trace, backendName(workers), got.trace)
					}
				}
			}
		})
	}
}

// mmCanonBytes canonically serializes MM's per-rank result-tile maps
// (generic because mm's tile type is unexported).
func mmCanonBytes[T ~[]float32](t *testing.T, perRank []map[uint32]T) []byte {
	t.Helper()
	var out bytes.Buffer
	for r, m := range perRank {
		keys := make([]uint32, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			binary.Write(&out, binary.LittleEndian, uint32(r))
			binary.Write(&out, binary.LittleEndian, k)
			if err := binary.Write(&out, binary.LittleEndian, []float32(m[k])); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.Bytes()
}

// TestBackendDifferentialFaults extends the matrix with fault injection:
// a fail-stop mid-map plus a derated straggler with speculation — the
// paths where recovery requeues, relays, and twin races most stress the
// join protocol. Output and trace (including every recovery counter) must
// not depend on the backend.
func TestBackendDifferentialFaults(t *testing.T) {
	run := func(workers int) backendRun {
		job, _ := sio.NewJob(sio.Params{Elements: 8 << 20, GPUs: 8, Seed: 2, PhysMax: 1 << 13, ChunkCap: 1 << 20})
		job.Config.GatherOutput = true
		job.Config.Workers = workers
		job.Config.Speculate = true
		job.Config.Faults = &fault.Plan{Events: []fault.Event{
			fault.FailAfterChunks(2, 2),
			fault.SlowdownAfterChunks(5, 1, 8),
		}}
		res := job.MustRun()
		return backendRun{result: canonBytes(t, res.PerRank), trace: []core.Trace{*res.Trace}}
	}
	want := run(0)
	for _, workers := range backendPoints()[1:] {
		got := run(workers)
		if !bytes.Equal(got.result, want.result) {
			t.Errorf("%s fault-run result bytes diverge from serial", backendName(workers))
		}
		if !reflect.DeepEqual(got.trace, want.trace) {
			t.Errorf("%s fault-run trace diverges from serial:\n--- serial\n%+v\n--- got\n%+v",
				backendName(workers), want.trace, got.trace)
		}
	}
}
