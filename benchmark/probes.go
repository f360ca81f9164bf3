package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/kmc"
	"repro/internal/apps/lr"
	"repro/internal/apps/mm"
	"repro/internal/apps/sio"
	"repro/internal/apps/wo"
	"repro/internal/cluster"
	"repro/internal/cudpp"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/keyval"
	"repro/internal/mph"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The probe suite: each probe times calls into one module's public
// functions, from here, at a fixed operation count. Only this file and
// probes_serve.go import internal packages; the workloads drive the
// system from outside. The suite runs in its own child process.

// probeSpan is one probe's interval, relative to the suite's start.
type probeSpan struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Ops   int     `json:"ops"`
}

// probeReport is what the probes child prints.
type probeReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []probeSpan        `json:"spans"`
	Error   string             `json:"error,omitempty"`
}

// probeRun accumulates one suite's metrics and spans.
type probeRun struct {
	quick bool
	dir   string // scratch directory for the probes that need files
	t0    time.Time
	rep   probeReport
}

// n scales an operation count down for -quick smoke runs.
func (p *probeRun) n(full int) int {
	if p.quick {
		return max(full/50, 2)
	}
	return full
}

func (p *probeRun) set(name string, v float64) {
	unitOf(name) // a probe may only report a defined metric
	p.rep.Metrics[name] = v
}

// timed runs fn as one probe span and returns how long it took.
func (p *probeRun) timed(name string, ops int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	p.rep.Spans = append(p.rep.Spans, probeSpan{Name: name,
		Start: start.Sub(p.t0).Seconds(), End: start.Add(d).Sub(p.t0).Seconds(), Ops: ops})
	return d
}

func perSecond(ops int, d time.Duration) float64 { return float64(ops) / d.Seconds() }

// mallocsDuring reports the heap objects and bytes fn allocated.
func mallocsDuring(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// runProbes runs the whole suite. A panicking probe fails the suite with
// its message rather than a bare stack.
func runProbes(quick bool, dir string) (rep probeReport) {
	p := &probeRun{quick: quick, dir: dir, t0: time.Now(), rep: probeReport{Metrics: map[string]float64{}}}
	defer func() {
		if r := recover(); r != nil {
			p.rep.Error = fmt.Sprint(r)
			rep = p.rep
		}
	}()
	p.probeDES()
	p.probeDevices()
	p.probeKernels()
	p.probeApps()
	p.probeSched()
	p.probeServeFleetObs()
	return p.rep
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ---- des ----

func (p *probeRun) probeDES() {
	// One process sleeping: the timer path, one event per Sleep.
	n := p.n(200_000)
	d := p.timed("des.timer", n, func() {
		e := des.NewEngine()
		e.Spawn("looper", func(pr *des.Proc) {
			for i := 0; i < n; i++ {
				pr.Sleep(des.Nanosecond)
			}
		})
		e.Run()
	})
	p.set("des.timer_events_per_s", perSecond(n, d))

	// Two processes handing a token back and forth through queues: two
	// wake-ups per round trip. Allocation per event is measured here.
	n = p.n(100_000)
	var objects float64
	d = p.timed("des.pingpong", 2*n, func() {
		objects, _ = mallocsDuring(func() {
			e := des.NewEngine()
			a2b, b2a := des.NewQueue(e, "a2b"), des.NewQueue(e, "b2a")
			e.Spawn("a", func(pr *des.Proc) {
				for i := 0; i < n; i++ {
					a2b.Put(i)
					b2a.Get(pr)
				}
				a2b.Put(-1)
			})
			e.Spawn("b", func(pr *des.Proc) {
				for a2b.Get(pr) != -1 {
					b2a.Put(0)
				}
			})
			e.Run()
		})
	})
	p.set("des.pingpong_events_per_s", perSecond(2*n, d))
	p.set("des.allocs_per_event", objects/float64(2*n))

	// Eight processes contending for a two-slot resource.
	const procs = 8
	n = p.n(20_000)
	d = p.timed("des.resource", procs*n, func() {
		e := des.NewEngine()
		r := des.NewResource(e, "slots", 2)
		for i := 0; i < procs; i++ {
			e.Spawn("user", func(pr *des.Proc) {
				for k := 0; k < n; k++ {
					r.Use(pr, 1, des.Nanosecond)
				}
			})
		}
		e.Run()
	})
	p.set("des.resource_events_per_s", perSecond(procs*n, d))

	// A 4-shard hub-and-spokes ShardSet: the hub posts to each spoke and
	// each spoke posts back, all through the coordinator's rounds.
	const spokes = 3
	n = p.n(5_000)
	posts := 2 * spokes * n
	d = p.timed("des.post", posts, func() {
		ss := des.NewShardSet(spokes + 1)
		const hop = des.Microsecond
		for s := 1; s <= spokes; s++ {
			ss.DeclareEdge(0, s, hop)
			ss.DeclareEdge(s, 0, hop)
		}
		got := 0
		ss.Engine(0).Spawn("hub", func(pr *des.Proc) {
			for k := 0; k < n; k++ {
				for s := 1; s <= spokes; s++ {
					s := s
					ss.Post(pr.Engine(), s, 0, hop, "ping", func(sp *des.Proc) {
						ss.Post(sp.Engine(), 0, s, hop, "pong", func(*des.Proc) { got++ })
					})
				}
				pr.Sleep(3 * hop)
			}
		})
		ss.Run()
		if got != spokes*n {
			panic(fmt.Sprintf("des.post: %d of %d replies", got, spokes*n))
		}
	})
	p.set("des.post_events_per_s", perSecond(posts, d))

	// A process joining a future that a foreign goroutine completes.
	n = p.n(30_000)
	d = p.timed("des.future_join", n, func() {
		e := des.NewEngine()
		e.Spawn("joiner", func(pr *des.Proc) {
			for i := 0; i < n; i++ {
				f := e.NewFuture("work")
				go f.Complete()
				f.Join()
			}
		})
		e.Run()
	})
	p.set("des.future_join_ns", float64(d.Nanoseconds())/float64(n))

	// A foreign goroutine injecting into a parked engine and waiting for
	// the injected body to run — serve.Submit's hand-off.
	n = p.n(30_000)
	d = p.timed("des.inject", n, func() {
		e := des.NewEngine()
		inj := e.NewInjector()
		ran := make(chan struct{})
		go func() {
			for i := 0; i < n; i++ {
				must(inj.Inject("arrival", func(*des.Proc) { ran <- struct{}{} }))
				<-ran
			}
			must(inj.Close())
		}()
		e.Run()
	})
	p.set("des.inject_events_per_s", perSecond(n, d))
}

// ---- gpu, fabric, cluster ----

// spin occupies the calling goroutine for d of host time.
func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

// launchAll builds an nGPU cluster and has one process per device launch
// `launches` kernels running fn; it returns the host time the run took.
func launchAll(nGPU, workers, launches int, fn func()) time.Duration {
	e := des.NewEngine()
	cc := cluster.DefaultConfig(nGPU)
	cc.Workers = workers
	cl := cluster.New(e, cc)
	defer cl.Close()
	spec := gpu.KernelSpec{Name: "probe", Threads: 1 << 16, BytesRead: 1 << 18}
	for _, dev := range cl.GPUs {
		dev := dev
		e.Spawn("rank", func(pr *des.Proc) {
			for i := 0; i < launches; i++ {
				dev.Launch(pr, spec, fn)
			}
		})
	}
	start := time.Now()
	e.Run()
	return time.Since(start)
}

func (p *probeRun) probeDevices() {
	// Dispatch cost of one launch with an empty closure, per backend.
	const devs = 8
	workers := connections()
	n := p.n(10_000)
	var d time.Duration
	p.timed("gpu.launch_serial", devs*n, func() { d = launchAll(devs, 0, n, func() {}) })
	p.set("gpu.launch_serial_ns", float64(d.Nanoseconds())/float64(devs*n))
	p.timed("gpu.launch_pool", devs*n, func() { d = launchAll(devs, workers, n, func() {}) })
	p.set("gpu.launch_pool_ns", float64(d.Nanoseconds())/float64(devs*n))

	// Eight devices, closures of a fixed 200 us: what the pool buys.
	n = p.n(50)
	var serial, pool time.Duration
	work := func() { spin(200 * time.Microsecond) }
	p.timed("gpu.pool_speedup", 2*devs*n, func() {
		serial = launchAll(devs, 0, n, work)
		pool = launchAll(devs, workers, n, work)
	})
	p.set("gpu.pool_speedup", serial.Seconds()/pool.Seconds())

	// Cross-node messages, one sender and one receiver.
	n = p.n(30_000)
	d = p.timed("fabric.sendrecv", n, func() {
		e := des.NewEngine()
		cl := cluster.New(e, cluster.DefaultConfig(8))
		defer cl.Close()
		e.Spawn("send", func(pr *des.Proc) {
			for i := 0; i < n; i++ {
				cl.Fabric.Send(pr, 0, 4, "probe", 4096, nil)
			}
		})
		e.Spawn("recv", func(pr *des.Proc) {
			for i := 0; i < n; i++ {
				cl.Fabric.Recv(pr, 4)
			}
		})
		e.Run()
	})
	p.set("fabric.sendrecv_msgs_per_s", perSecond(n, d))

	n = p.n(300)
	d = p.timed("cluster.new", n, func() {
		for i := 0; i < n; i++ {
			cluster.New(des.NewEngine(), cluster.DefaultConfig(64)).Close()
		}
	})
	p.set("cluster.new_us", d.Seconds()*1e6/float64(n))
}

// ---- cudpp, keyval, mph, workload ----

func (p *probeRun) probeKernels() {
	const seed = 7
	n := p.n(1 << 19)
	keys := workload.SparseInts(seed, n)
	const reps = 3
	d := p.timed("cudpp.sortpairs", reps*n, func() {
		for r := 0; r < reps; r++ {
			k := append([]uint32(nil), keys...)
			v := make([]uint32, n)
			cudpp.SortPairs(k, v)
		}
	})
	p.set("cudpp.sortpairs_mpairs_per_s", perSecond(reps*n, d)/1e6)

	sorted := make([]uint32, p.n(1<<21))
	for i := range sorted {
		sorted[i] = uint32(i / 16) // runs of 16 like keys
	}
	d = p.timed("cudpp.segments", reps*len(sorted), func() {
		for r := 0; r < reps; r++ {
			cudpp.Segments(sorted)
		}
	})
	p.set("cudpp.segments_mkeys_per_s", perSecond(reps*len(sorted), d)/1e6)

	n = p.n(1 << 21)
	d = p.timed("keyval.append", n, func() {
		var pairs keyval.Pairs[uint32]
		for i := 0; i < n; i++ {
			pairs.Append(uint32(i), 1)
		}
	})
	p.set("keyval.append_mpairs_per_s", perSecond(n, d)/1e6)

	pairs := keyval.Pairs[uint32]{Keys: keys, Vals: make([]uint32, len(keys))}
	d = p.timed("keyval.bucket", reps*len(keys), func() {
		for r := 0; r < reps; r++ {
			pairs.Bucket(16, func(k uint32) int { return int(k % 16) })
		}
	})
	p.set("keyval.bucket_mpairs_per_s", perSecond(reps*len(keys), d)/1e6)

	words := workload.Dictionary(seed, p.n(43_000))
	var table *mph.Table
	d = p.timed("mph.build", len(words), func() {
		var err error
		table, err = mph.Build(words)
		must(err)
	})
	p.set("mph.build_kwords_per_s", perSecond(len(words), d)/1e3)
	const lookupReps = 20
	d = p.timed("mph.lookup", lookupReps*len(words), func() {
		for r := 0; r < lookupReps; r++ {
			for _, w := range words {
				table.Lookup(w)
			}
		}
	})
	p.set("mph.lookup_mops_per_s", perSecond(lookupReps*len(words), d)/1e6)

	n = p.n(4 << 20)
	d = p.timed("workload.text", n, func() { workload.Text(seed, words, n) })
	p.set("workload.text_mb_per_s", perSecond(n, d)/1e6)
	n = p.n(1 << 20)
	d = p.timed("workload.points", 4*n, func() { workload.Points(seed, n, 4) })
	p.set("workload.points_melems_per_s", perSecond(4*n, d)/1e6)
	n = p.n(1 << 22)
	d = p.timed("workload.sparseints", n, func() { workload.SparseInts(seed, n) })
	p.set("workload.sparseints_melems_per_s", perSecond(n, d)/1e6)
}

// ---- apps and core ----

// appSizes are the largest Figure 3 inputs (bench.Fig3Sizes): the matrix
// edge for mm, corpus bytes for wo, element counts for the rest.
var appSizes = map[string]int64{"mm": 16384, "sio": 128 << 20, "wo": 512 << 20, "kmc": 512 << 20, "lr": 512 << 20}

// buildApp constructs app a's job on gpus GPUs and returns a function
// that runs it on the given kernel backend.
func buildApp(a string, gpus, phys int) func(workers int) {
	const seed = 1
	switch a {
	case "mm":
		b, err := mm.New(mm.Params{Dim: appSizes[a], GPUs: gpus, Seed: seed})
		must(err)
		return func(w int) {
			b.Job1.Config.Workers = w
			_, _, _, err := b.Run()
			must(err)
		}
	case "sio":
		job, _ := sio.NewJob(sio.Params{Elements: appSizes[a], GPUs: gpus, Seed: seed, PhysMax: phys})
		return func(w int) { job.Config.Workers = w; _, err := job.Run(); must(err) }
	case "wo":
		b := wo.NewJob(wo.Params{Bytes: appSizes[a], GPUs: gpus, Seed: seed, PhysMax: phys, DictSize: 4300})
		return func(w int) { b.Job.Config.Workers = w; _, err := b.Job.Run(); must(err) }
	case "kmc":
		b := kmc.NewJob(kmc.Params{Points: appSizes[a], GPUs: gpus, Seed: seed, PhysMax: phys})
		return func(w int) { b.Job.Config.Workers = w; _, err := b.Job.Run(); must(err) }
	case "lr":
		b := lr.NewJob(lr.Params{Points: appSizes[a], GPUs: gpus, Seed: seed, PhysMax: phys})
		return func(w int) { b.Job.Config.Workers = w; _, err := b.Job.Run(); must(err) }
	}
	panic("unknown app " + a)
}

func (p *probeRun) probeApps() {
	phys := p.n(1 << 18)
	// Each app builds and runs in milliseconds, so both are repeated and
	// the median reported.
	const reps = 5
	for _, a := range probeApps {
		var run func(int)
		var build, runs []float64
		var bytes float64
		for r := 0; r < reps; r++ {
			d := p.timed("apps."+a+".build", 1, func() { run = buildApp(a, 4, phys) })
			build = append(build, d.Seconds()*1e3)
			d = p.timed("core."+a+".run", 1, func() { _, bytes = mallocsDuring(func() { run(0) }) })
			runs = append(runs, d.Seconds()*1e3)
		}
		p.set("apps."+a+".build_ms", median(build))
		p.set("core."+a+".run_ms", median(runs))
		p.set("core."+a+".alloc_mb", bytes/(1<<20))
	}

	// One k-means job on 8 GPUs, pool(all cores) over serial.
	run := buildApp("kmc", 8, phys)
	serial := p.timed("core.kmc.serial8", 1, func() { run(0) })
	pool := p.timed("core.kmc.pool8", 1, func() { run(-1) })
	p.set("core.kmc.run_pool_ratio", pool.Seconds()/serial.Seconds())

	// The recovery path: bench's fail-stop scenario (rank 2 dies after
	// its third chunk, survivors re-execute and inherit its partition).
	job, _ := sio.NewJob(sio.Params{Elements: 32 << 20, GPUs: 8, Seed: 1, PhysMax: p.n(1 << 16), ChunkCap: 1 << 20})
	job.Config.GatherOutput = true
	job.Config.Faults = &fault.Plan{Events: []fault.Event{fault.FailAfterChunks(2, 3)}}
	d := p.timed("core.failstop.run", 1, func() {
		res, err := job.Run()
		must(err)
		if res.Trace.Recovery().ChunksRecovered == 0 {
			panic("core.failstop: no chunk was recovered")
		}
	})
	p.set("core.failstop.run_ms", d.Seconds()*1e3)

	// One 4-GPU no-op job run exclusively: core's per-job spin-up alone.
	n := p.n(300)
	var objects float64
	rng := newRNG(1, streamSched)
	d = p.timed("core.noop.run", n, func() {
		objects, _ = mallocsDuring(func() {
			for i := 0; i < n; i++ {
				_, err := noopJob(i, 4, noopMapper{}, rng).Run()
				must(err)
			}
		})
	})
	p.set("core.noop.run_us", d.Seconds()*1e6/float64(n))
	p.set("core.noop.allocs_per_job", objects/float64(n))
}

// ---- sched ----

func (p *probeRun) probeSched() {
	// ROADMAP item 2's keep-or-delete gate: the same spaced stream under
	// each engine and backend mode.
	n := p.n(1_500)
	modes := []struct {
		name            string
		shards, workers int
	}{{"shards0", 0, 0}, {"shards1", 1, 0}, {"pernode", -1, 0}, {"pool", 0, -1}}
	var base *sched.ClusterTrace
	for _, m := range modes {
		cc := cluster.DefaultConfig(64)
		cc.Shards, cc.Workers = m.shards, m.workers
		specs := noopSpecs(1, n, false, nil)
		var ct *sched.ClusterTrace
		var objects float64
		d := p.timed("sched.stream."+m.name, n, func() {
			objects, _ = mallocsDuring(func() {
				var err error
				ct, err = sched.Run(cc, sched.Policy{Kind: sched.WeightedFair}, specs)
				must(err)
			})
		})
		if len(ct.Jobs) != n {
			panic(fmt.Sprintf("sched.stream.%s: %d of %d jobs ran", m.name, len(ct.Jobs), n))
		}
		p.set("sched.stream_jobs_per_s."+m.name, perSecond(n, d))
		if base == nil {
			base = ct
			p.set("sched.allocs_per_job", objects/float64(n))
		}
	}
	const reps = 5
	d := p.timed("sched.trace_string", reps, func() {
		for r := 0; r < reps; r++ {
			_ = base.String()
		}
	})
	p.set("sched.trace_string_ms", d.Seconds()*1e3/reps)

	// A burst under each policy: the deep-queue placement pass.
	n = p.n(500)
	policies := []struct {
		name string
		pol  sched.Policy
	}{
		{"fifo", sched.Policy{Kind: sched.FIFOExclusive}},
		{"fixedshare", sched.Policy{Kind: sched.FixedShare, Share: 4}},
		{"weightedfair", sched.Policy{Kind: sched.WeightedFair}},
		{"reserve", sched.Policy{Kind: sched.WeightedFair, Reserve: true}},
	}
	for _, pc := range policies {
		specs := noopSpecs(1, n, true, nil)
		d := p.timed("sched.burst."+pc.name, n, func() {
			_, err := sched.Run(cluster.DefaultConfig(64), pc.pol, specs)
			must(err)
		})
		p.set("sched.burst_jobs_per_s."+pc.name, perSecond(n, d))
	}
}
