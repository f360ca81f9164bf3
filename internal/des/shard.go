package des

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// infTime is the sentinel "no event scheduled" horizon. It is far enough
// from MaxInt64 that adding any realistic edge latency cannot overflow.
const infTime = Time(math.MaxInt64 / 4)

// post is one cross-shard message: spawn body as a fresh process at time
// at on the destination engine. Posts are ordered by (at, srcKey, seq).
// srcKey identifies the LOGICAL sender — a stable id independent of how
// gangs are laid out over engines — and seq orders the posts of one
// sender, so the merged delivery order is identical at every shard count.
type post struct {
	at     Time
	srcKey int
	seq    uint64
	name   string
	body   func(p *Proc)
}

// postHeap is a binary min-heap of posts ordered by (at, srcKey, seq).
// It is engine-confined once routed: only the owning engine pops it.
type postHeap []post

func (h postHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.srcKey != b.srcKey {
		return a.srcKey < b.srcKey
	}
	return a.seq < b.seq
}

func (h *postHeap) push(p post) {
	*h = append(*h, p)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *postHeap) pop() post {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// shardEdge is one declared cross-shard channel with its lookahead bound.
type shardEdge struct {
	src, dst int
	minDelay Time
}

// ShardSet runs one simulation as N cooperating engines synchronized by
// conservative lookahead. Engine 0 is, by convention, the hub (schedulers
// and arrival processes live there); the remaining engines host confined
// groups of processes (gangs). Cross-shard communication happens ONLY
// through Post along edges declared with DeclareEdge, each carrying a
// positive minimum delay — the lookahead that lets neighbours advance in
// parallel.
//
// Synchronization is a classic conservative (CMB-style) round loop. Each
// round the coordinator reads every shard's next-event time NET_i, relaxes
//
//	eff_i = min(NET_i, min over in-edges (eff_j + L_ji))
//
// to a fixpoint (eff_i bounds the earliest instant shard i could emit a
// post, directly or transitively), computes each shard's safe horizon
//
//	safe_i = min over in-edges (eff_j + L_ji)
//
// and runs every shard with NET_i < safe_i concurrently up to (strictly
// below) its horizon. Posts generated during the round are routed at the
// barrier; a post from j to i is stamped no earlier than NET_j + L_ji >=
// safe_i, so it can never land behind the frontier a shard reached — the
// lookahead invariant, asserted at routing and again at delivery.
//
// Determinism does not depend on the physical layout: posts merge into a
// shard's event stream by (time, srcKey, seq), applied before any local
// event at the same time, and a Post whose destination is the sender's own
// engine takes the identical buffered path. A simulation therefore
// produces byte-identical event order at 1, 2, or N shards.
type ShardSet struct {
	engines []*Engine
	edges   []shardEdge
	inEdges [][]shardEdge // by destination

	mu     sync.Mutex
	staged [][]post       // cross-engine posts awaiting the round barrier
	seqs   map[int]uint64 // next seq per srcKey

	ran bool
	rec *obs.Recorder
}

// NewShardSet creates n engines (n >= 1) wired for coordinated execution.
func NewShardSet(n int) *ShardSet {
	if n < 1 {
		panic("des: a shard set needs at least one shard")
	}
	ss := &ShardSet{
		engines: make([]*Engine, n),
		inEdges: make([][]shardEdge, n),
		staged:  make([][]post, n),
		seqs:    make(map[int]uint64),
	}
	for i := range ss.engines {
		e := NewEngine()
		e.set = ss
		e.shard = i
		ss.engines[i] = e
	}
	return ss
}

// Shards returns the number of engines in the set.
func (ss *ShardSet) Shards() int { return len(ss.engines) }

// SetRecorder attaches a flight recorder to every shard engine and to the
// coordinator (which reports per-round synchronization bookkeeping). Must
// be called before Run.
func (ss *ShardSet) SetRecorder(r *obs.Recorder) {
	if ss.ran {
		panic("des: SetRecorder after Run")
	}
	ss.rec = r
	for _, e := range ss.engines {
		e.SetRecorder(r)
	}
}

// Engine returns shard i's engine. Engine 0 is the hub.
func (ss *ShardSet) Engine(i int) *Engine { return ss.engines[i] }

// DeclareEdge registers a directed cross-shard channel and its minimum
// delay — the lookahead bound every Post along it must respect. Must be
// called before Run. Self-edges need no declaration: a shard always sees
// its own posts.
func (ss *ShardSet) DeclareEdge(src, dst int, minDelay Time) {
	if ss.ran {
		panic("des: DeclareEdge after Run")
	}
	if src == dst {
		panic("des: self-edges are implicit; do not declare them")
	}
	if minDelay <= 0 {
		panic(fmt.Sprintf("des: edge %d->%d needs a positive lookahead, got %v", src, dst, minDelay))
	}
	e := shardEdge{src: src, dst: dst, minDelay: minDelay}
	ss.edges = append(ss.edges, e)
	ss.inEdges[dst] = append(ss.inEdges[dst], e)
}

// edgeDelay returns the declared minimum delay for src->dst, or ok=false.
func (ss *ShardSet) edgeDelay(src, dst int) (Time, bool) {
	for _, e := range ss.edges {
		if e.src == src && e.dst == dst {
			return e.minDelay, true
		}
	}
	return 0, false
}

// Post schedules body as a fresh process named name on shard dst's engine
// at src.Now()+delay. src must be the engine the caller is currently
// executing on (a process of src, or the coordinator between rounds).
// srcKey is the logical sender's stable identity; posts from one key must
// all originate from one engine at a time, which makes the per-key
// sequence numbers deterministic without any cross-shard agreement.
// Cross-engine posts require a declared edge and delay >= the edge's
// lookahead; same-engine posts only need delay > 0.
func (ss *ShardSet) Post(src *Engine, dst int, srcKey int, delay Time, name string, body func(p *Proc)) {
	if src.set != ss {
		panic("des: Post from an engine outside this shard set")
	}
	if dst < 0 || dst >= len(ss.engines) {
		panic(fmt.Sprintf("des: Post to unknown shard %d", dst))
	}
	if delay <= 0 {
		panic(fmt.Sprintf("des: post %q needs a positive delay, got %v", name, delay))
	}
	if src.shard != dst {
		min, ok := ss.edgeDelay(src.shard, dst)
		if !ok {
			panic(fmt.Sprintf("des: post %q on undeclared edge %d->%d", name, src.shard, dst))
		}
		if delay < min {
			panic(fmt.Sprintf("des: post %q carries delay %v below edge %d->%d lookahead %v",
				name, delay, src.shard, dst, min))
		}
	}
	po := post{at: src.now + delay, srcKey: srcKey, name: name, body: body}
	ss.mu.Lock()
	po.seq = ss.seqs[srcKey]
	ss.seqs[srcKey] = po.seq + 1
	if src.shard == dst {
		// Same engine: deliver straight into the owner's buffer. No race —
		// the poster IS the goroutine driving this engine right now.
		ss.mu.Unlock()
		src.posts.push(po)
		return
	}
	ss.staged[dst] = append(ss.staged[dst], po)
	ss.mu.Unlock()
}

// route moves staged posts into their destination engines' buffers. Called
// only between rounds, when no shard is executing.
func (ss *ShardSet) route() {
	for dst, batch := range ss.staged {
		if len(batch) == 0 {
			continue
		}
		e := ss.engines[dst]
		for _, po := range batch {
			if po.at < e.now {
				panic(fmt.Sprintf("des: post %q for t=%v reached shard %d behind its frontier t=%v (lookahead violation)",
					po.name, po.at, dst, e.now))
			}
			e.posts.push(po)
		}
		ss.staged[dst] = batch[:0]
	}
}

// NewInjector opens an injection handle on the hub engine, served by
// whichever loop Run uses: the sharded counterpart of Engine.NewInjector,
// with identical semantics. Injected bodies spawn on the hub at the global
// frontier (the maximum shard frontier), so their effects reach every
// other shard strictly beyond any clock it has already passed. Must be
// called before Run.
func (ss *ShardSet) NewInjector() *Injector { return ss.engines[0].NewInjector() }

// frontier returns the maximum shard clock — the global virtual time the
// simulation has reached.
func (ss *ShardSet) frontier() Time {
	var t Time
	for _, e := range ss.engines {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// applyInjection lands one injection on the hub at the global frontier.
// Runs on the coordinator goroutine between rounds.
func (ss *ShardSet) applyInjection(m injMsg) {
	hub := ss.engines[0]
	if m.close {
		hub.openInj--
		if hub.openInj < 0 {
			panic("des: injector closed twice")
		}
		return
	}
	at := ss.frontier()
	if at < hub.now {
		at = hub.now
	}
	if ss.rec.Enabled() {
		// Live-mode-only, like the single-engine injection event.
		ss.rec.Emit(int64(at), obs.CatSim, "injector", "inject", obs.A("name", m.name))
	}
	hub.spawnAt(at, lateBit, m.name, m.body)
}

// drainInjections applies every queued injection without blocking.
func (ss *ShardSet) drainInjections() {
	hub := ss.engines[0]
	for {
		select {
		case m := <-hub.injc:
			ss.applyInjection(m)
		default:
			return
		}
	}
}

// Run drives every shard to completion and returns the global makespan
// (the time of the last dispatched event anywhere). It owns global
// liveness: when no shard has pending work and no injector is open, any
// still-live process means the whole simulation deadlocked, and Run panics
// with the aggregated report the single-engine path would have produced.
// Like Engine.Run it may be called once.
//
// A set of one engine has no neighbour to synchronize with, so it runs
// Engine.Run, which already steps buffered posts and — unlike a
// coordinator round, which would span the whole queue — admits injections
// between dispatches.
func (ss *ShardSet) Run() Time {
	if ss.ran {
		panic("des: ShardSet.Run called twice")
	}
	ss.ran = true
	hub := ss.engines[0]
	if len(ss.engines) == 1 {
		return hub.Run()
	}
	for _, e := range ss.engines {
		if e.running {
			panic("des: ShardSet.Run over an engine already running")
		}
		e.running = true
	}
	defer func() {
		for _, e := range ss.engines {
			e.running = false
		}
		if !hub.everStopped {
			hub.everStopped = true
			close(hub.stopped)
		}
	}()

	n := len(ss.engines)
	nets := make([]Time, n)
	effs := make([]Time, n)
	safes := make([]Time, n)
	var wg sync.WaitGroup
	panics := make([]any, n)
	var rounds, shardRuns int64

	for {
		ss.drainInjections()
		ss.route()

		idle := true
		for i, e := range ss.engines {
			if t, ok := e.nextTime(); ok {
				nets[i] = t
				idle = false
			} else {
				nets[i] = infTime
			}
		}
		if idle {
			if hub.openInj > 0 {
				ss.applyInjection(<-hub.injc) // park: wait for the outside world
				continue
			}
			live, blocked := 0, []string(nil)
			for _, e := range ss.engines {
				live += len(e.procs)
				blocked = append(blocked, e.blockedNames()...)
			}
			if live > 0 {
				sort.Strings(blocked)
				panic(fmt.Sprintf("des: deadlock at t=%v: %d process(es) blocked across %d shard(s): %v",
					ss.frontier(), live, n, blocked))
			}
			break
		}

		// Conservative horizons: relax eff to a fixpoint over the declared
		// edges (at most n-1 rounds of Bellman-Ford), then bound each shard
		// by its incoming edges. A shard with no incoming edges is safe to
		// run to completion of its current work.
		copy(effs, nets)
		for range ss.engines {
			changed := false
			for _, ed := range ss.edges {
				if v := effs[ed.src] + ed.minDelay; v < effs[ed.dst] {
					effs[ed.dst] = v
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		ran := false
		for i := range ss.engines {
			safe := infTime
			for _, ed := range ss.inEdges[i] {
				if v := effs[ed.src] + ed.minDelay; v < safe {
					safe = v
				}
			}
			safes[i] = safe
			if nets[i] < safe {
				ran = true
			}
		}
		if !ran {
			// Cannot happen with positive edge delays: the globally minimal
			// NET always clears its horizon. Guard against a future zero-
			// latency cycle rather than spin forever.
			panic(fmt.Sprintf("des: shard set stalled at t=%v (zero-lookahead cycle?)", ss.frontier()))
		}
		running := 0
		for i := range ss.engines {
			if nets[i] >= safes[i] {
				continue
			}
			running++
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { panics[i] = recover() }()
				ss.engines[i].runWindow(safes[i])
			}(i)
		}
		wg.Wait()
		for _, pnc := range panics {
			if pnc != nil {
				panic(pnc)
			}
		}
		rounds++
		shardRuns += int64(running)
		if ss.rec.Enabled() {
			ss.rec.Emit(int64(ss.frontier()), obs.CatEngine, "shardset", "round",
				obs.Int("round", rounds), obs.Int("ran", int64(running)))
		}
	}
	for _, e := range ss.engines {
		e.checkFutures()
	}
	if ss.rec.Enabled() {
		var dispatched int64
		for _, e := range ss.engines {
			dispatched += int64(e.dispatched)
		}
		ss.rec.Emit(int64(ss.frontier()), obs.CatEngine, "shardset", "shardset.stats",
			obs.Int("shards", int64(n)), obs.Int("rounds", rounds),
			obs.Int("shard_runs", shardRuns), obs.Int("dispatched", dispatched))
	}
	return ss.frontier()
}
