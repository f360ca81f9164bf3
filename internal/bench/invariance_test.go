package bench

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/apps/kmc"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/keyval"
	"repro/internal/sched"
)

// canonBytes serializes a job's output as a canonical byte string: every
// partition's pairs pooled, sorted by key then by encoded value, and
// binary-encoded. Two runs produced the same *answer* iff their canonical
// bytes are equal, regardless of how many partitions the answer was split
// into or the order pairs arrived within a key.
func canonBytes[V any](t *testing.T, perRank []keyval.Pairs[V]) []byte {
	t.Helper()
	type pair struct {
		k uint32
		v []byte
	}
	var all []pair
	for i := range perRank {
		pr := &perRank[i]
		for j := range pr.Keys {
			var vb bytes.Buffer
			if err := binary.Write(&vb, binary.LittleEndian, pr.Vals[j]); err != nil {
				t.Fatalf("encoding value: %v", err)
			}
			all = append(all, pair{k: pr.Keys[j], v: vb.Bytes()})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].k != all[j].k {
			return all[i].k < all[j].k
		}
		return bytes.Compare(all[i].v, all[j].v) < 0
	})
	var out bytes.Buffer
	for _, p := range all {
		binary.Write(&out, binary.LittleEndian, p.k)
		out.Write(p.v)
	}
	return out.Bytes()
}

// invariancePoint is one cell of the metamorphic matrix.
type invariancePoint struct {
	gpus  int
	steal core.StealPolicy
	gd    bool
}

// invarianceMatrix is every combination with the identity build tag;
// tier-1 keeps the first point, the baseline, and the last, which moves
// every knob at once.
func invarianceMatrix() []invariancePoint {
	var pts []invariancePoint
	for _, gpus := range []int{1, 4, 8} {
		for _, steal := range []core.StealPolicy{core.StealGlobal, core.StealLocalFirst} {
			for _, gd := range []bool{false, true} {
				pts = append(pts, invariancePoint{gpus, steal, gd})
			}
		}
	}
	if !full {
		return []invariancePoint{pts[0], pts[len(pts)-1]}
	}
	return pts
}

// mutate applies one matrix point and a kernel backend to a job and skews
// the initial chunk placement onto rank 0, so the steal machinery
// genuinely runs and the chunk→rank mapping genuinely differs across
// cells.
func mutate[V any](job *core.Job[V], pt invariancePoint, workers int) {
	job.Config.StealPolicy = pt.steal
	job.Config.GPUDirect = pt.gd
	job.Config.Workers = workers
	job.Assign = func(int) int { return 0 }
}

// invarianceApps runs each app at one matrix point on a kernel backend
// and returns its canonical answer.
var invarianceApps = []struct {
	name string
	run  func(t *testing.T, pt invariancePoint, workers int) []byte
}{
	{"wo", func(t *testing.T, pt invariancePoint, workers int) []byte {
		b := wo.NewJob(wo.Params{Bytes: 4 << 20, GPUs: pt.gpus, Seed: 1, PhysMax: 1 << 14, DictSize: 1000, ChunkCap: 1 << 18})
		mutate(b.Job, pt, workers)
		return canonBytes(t, b.Job.MustRun().PerRank)
	}},
	{"sio", func(t *testing.T, pt invariancePoint, workers int) []byte {
		job, _ := sio.NewJob(sio.Params{Elements: 4 << 20, GPUs: pt.gpus, Seed: 1, PhysMax: 1 << 14, ChunkCap: 1 << 19})
		mutate(job, pt, workers)
		return canonBytes(t, job.MustRun().PerRank)
	}},
	{"kmc", func(t *testing.T, pt invariancePoint, workers int) []byte {
		b := kmc.NewJob(kmc.Params{Points: 4 << 20, GPUs: pt.gpus, Seed: 1, PhysMax: 1 << 12})
		mutate(b.Job, pt, workers)
		return canonBytes(t, b.Job.MustRun().PerRank)
	}},
}

// TestOutputInvarianceMatrix is the metamorphic test: for each app, every
// combination of GPU count, steal policy and GPUDirect must produce the
// byte-identical canonical answer. These knobs move work between ranks and
// reorder every accumulation — they may change the cost, never the answer.
func TestOutputInvarianceMatrix(t *testing.T) {
	for _, app := range invarianceApps {
		t.Run(app.name, func(t *testing.T) {
			var want []byte
			var base invariancePoint
			for _, pt := range invarianceMatrix() {
				got := app.run(t, pt, 0)
				if len(got) == 0 {
					t.Fatalf("%+v produced empty output", pt)
				}
				if want == nil {
					want, base = got, pt
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("output diverged: %+v vs baseline %+v", pt, base)
				}
			}
		})
	}
}

// concurrentFixture builds the three-app jobs used by the
// concurrent-vs-exclusive identity test. Rebuilt per call so scheduled
// and solo runs use identical fresh jobs.
func concurrentFixture() (*core.Scheduled[uint32], *core.Scheduled[uint32], *core.Scheduled[float64]) {
	woB := wo.NewJob(wo.Params{Bytes: 4 << 20, GPUs: 4, Seed: 3, PhysMax: 1 << 14, DictSize: 1000, ChunkCap: 1 << 18})
	sioJ, _ := sio.NewJob(sio.Params{Elements: 4 << 20, GPUs: 4, Seed: 3, PhysMax: 1 << 14, ChunkCap: 1 << 19})
	kmcB := kmc.NewJob(kmc.Params{Points: 4 << 20, GPUs: 4, Seed: 3, PhysMax: 1 << 12})
	return &core.Scheduled[uint32]{Job: woB.Job}, &core.Scheduled[uint32]{Job: sioJ}, &core.Scheduled[float64]{Job: kmcB.Job}
}

// TestConcurrentJobsMatchExclusiveRuns is the multi-tenancy identity
// criterion: jobs running concurrently on a shared, contended cluster
// must produce output byte-identical to the same jobs run alone on an
// exclusive cluster with the same gang size. Sharing changes time, never
// answers.
func TestConcurrentJobsMatchExclusiveRuns(t *testing.T) {
	cWo, cSio, cKmc := concurrentFixture()
	specs := []sched.JobSpec{
		{At: 0, Job: cWo},
		{At: des.Microsecond, Job: cSio},
		{At: 2 * des.Microsecond, Job: cKmc},
	}
	// A 12-rank cluster under fixed-share(4): all three jobs run at once,
	// two gangs sharing nodes and NICs with a neighbour.
	ct, err := sched.Run(cluster.DefaultConfig(12), sched.Policy{Kind: sched.FixedShare, Share: 4}, specs)
	if err != nil {
		t.Fatal(err)
	}
	overlap := false
	for i := range ct.Jobs {
		for j := range ct.Jobs {
			if i != j && ct.Jobs[i].Admit < ct.Jobs[j].Finish && ct.Jobs[j].Admit < ct.Jobs[i].Finish {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("fixture did not actually run jobs concurrently")
	}
	for i := range ct.Jobs {
		if got, want := ct.Jobs[i].Granted, 4; got != want {
			t.Fatalf("job %d granted %d ranks, want %d", i, got, want)
		}
	}

	// Exclusive baselines: fresh identical jobs, each alone on its own
	// 4-rank cluster.
	sWo, sSio, sKmc := concurrentFixture()
	assertPerRankEqual(t, ct.Jobs[0].Name, sWo.Job.MustRun().PerRank, cWo.Result.PerRank)
	assertPerRankEqual(t, ct.Jobs[1].Name, sSio.Job.MustRun().PerRank, cSio.Result.PerRank)
	assertPerRankEqual(t, ct.Jobs[2].Name, sKmc.Job.MustRun().PerRank, cKmc.Result.PerRank)
}

// assertPerRankEqual demands byte-exact equality partition by partition —
// stronger than the canonical comparison, possible here because gang
// sizes match.
func assertPerRankEqual[V comparable](t *testing.T, name string, solo, conc []keyval.Pairs[V]) {
	t.Helper()
	if conc == nil {
		t.Fatalf("%s: no captured concurrent result", name)
	}
	if len(solo) != len(conc) {
		t.Fatalf("%s: %d vs %d partitions", name, len(solo), len(conc))
	}
	for part := range solo {
		a, b := &solo[part], &conc[part]
		if a.Len() != b.Len() {
			t.Errorf("%s partition %d: %d vs %d pairs", name, part, a.Len(), b.Len())
			continue
		}
		for i := range a.Keys {
			if a.Keys[i] != b.Keys[i] || a.Vals[i] != b.Vals[i] {
				t.Errorf("%s partition %d diverges at pair %d: (%d,%v) vs (%d,%v)",
					name, part, i, a.Keys[i], a.Vals[i], b.Keys[i], b.Vals[i])
				break
			}
		}
	}
}

// TestScheduledGangSizeAdaptation: a job granted fewer ranks than
// requested still produces the same answer as an exclusive run at that
// granted size (the moldable-job contract).
func TestScheduledGangSizeAdaptation(t *testing.T) {
	mk := func() *core.Job[uint32] {
		job, _ := sio.NewJob(sio.Params{Elements: 4 << 20, GPUs: 8, Seed: 5, PhysMax: 1 << 14, ChunkCap: 1 << 19})
		return job
	}
	// Occupy 6 of 8 ranks with a long job; the 8-want SIO molds onto 2.
	long, _ := sio.NewJob(sio.Params{Elements: 16 << 20, GPUs: 6, Seed: 6, PhysMax: 1 << 14, ChunkCap: 1 << 20})
	molded := &core.Scheduled[uint32]{Job: mk()}
	ct, err := sched.Run(cluster.DefaultConfig(8), sched.Policy{Kind: sched.WeightedFair}, []sched.JobSpec{
		{At: 0, Job: &core.Scheduled[uint32]{Job: long}},
		{At: des.Millisecond, Job: molded},
	})
	if err != nil {
		t.Fatal(err)
	}
	granted := ct.Jobs[1].Granted
	if granted >= 8 {
		t.Fatalf("fixture failed: molded job granted %d ranks", granted)
	}
	solo := mk()
	solo.Config.GPUs = granted
	res, err := solo.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonBytes(t, res.PerRank), canonBytes(t, molded.Result.PerRank)) {
		t.Errorf("molded job (gang %d) output differs from exclusive run at the same size", granted)
	}
}
