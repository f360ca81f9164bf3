package des

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// event is a scheduled wake-up for a process.
type event struct {
	at   Time
	seq  uint64 // scheduling order, with lateBit set on boundary-class events
	proc *Proc
}

// lateBit, set in an event's sequence number, puts it in the boundary
// class: at its wake-up time it sorts after every ordinary event, whenever
// either was scheduled (see doc.go, "Boundary ordering"). Carrying the
// class in the sequence number keeps the heap comparison unchanged.
const lateBit = 1 << 63

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all interaction happens from simulated processes while the
// engine is running, or from the owning goroutine before Run.
//
// An Engine can run standalone (Run) or as one shard of a ShardSet (see
// shard.go), where a coordinator advances it window by window under
// conservative-lookahead synchronization. Either way, every piece of engine
// state is engine-confined: it is touched only by the goroutine currently
// driving this engine (the owner before Run, then exactly one process or
// the dispatch loop at a time).
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	yield   chan yieldMsg
	procs   []*Proc // spawned but not finished; a process leaves when it ends
	blocked int     // parked with no pending wake event
	running bool
	// Sharded-mode state (see shard.go): cross-shard messages buffered for
	// delivery, ordered by (at, srcKey, seq) so the merged dispatch order
	// is identical at every shard count, and the set this engine belongs
	// to (nil for a standalone engine).
	posts postHeap
	set   *ShardSet
	shard int // index within set
	// openFutures tracks join obligations for host work dispatched outside
	// the simulation (see future.go). Mutated only from the engine's
	// serialized goroutines; Run refuses to shut down while any remain.
	openFutures map[*Future]struct{}
	// Open-system state (see inject.go): while openInj > 0, Run parks on
	// injc instead of exiting when the event queue drains. stopped is
	// closed when Run returns for good, failing later injections fast.
	openInj     int
	injc        chan injMsg
	stopped     chan struct{}
	everStopped bool
	// Flight recorder (nil = disabled). The engine itself only reports
	// bookkeeping (dispatch counts, injector arrivals); simulation-level
	// events come from the layers above through the same recorder.
	rec        *obs.Recorder
	dispatched uint64
}

type yieldMsg struct {
	proc *Proc
	done bool
	pnc  any // panic value propagated from the process, if any
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	// injc is deliberately unbuffered: a successful send means the engine
	// goroutine received the message inside Run, so it is guaranteed to be
	// applied — a buffered channel would let a send race the engine's
	// final drain and strand an accepted injection forever.
	return &Engine{
		yield:       make(chan yieldMsg),
		openFutures: make(map[*Future]struct{}),
		injc:        make(chan injMsg),
		stopped:     make(chan struct{}),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetRecorder attaches a flight recorder (nil disables recording). Must
// be called before Run.
func (e *Engine) SetRecorder(r *obs.Recorder) {
	if e.running {
		panic("des: SetRecorder while the engine is running")
	}
	e.rec = r
}

// Recorder returns the attached flight recorder (nil when disabled).
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Proc is the handle a simulated process uses to interact with the engine.
// Each Proc is bound to exactly one goroutine (the one running its body).
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	idx    int  // position in eng.procs, for release
	parked bool // parked without a scheduled wake (waiting on resource/queue)
	ended  bool
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn registers a new process whose body starts at the current simulated
// time. It may be called before Run or from a running process.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.now, 0, name, body)
}

// spawnAt registers a new process whose body starts at time at (>= now),
// in ordering class class (0 or lateBit). It is how buffered cross-shard
// posts materialize — the post's delivery time is in this engine's future,
// and the spawned process's first event must carry that time, not the
// current frontier — and how injections land in the boundary class.
func (e *Engine) spawnAt(at Time, class uint64, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{}), idx: len(e.procs)}
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume // wait for first schedule
		var pnc any
		func() {
			defer func() {
				if r := recover(); r != nil {
					pnc = r
				}
			}()
			body(p)
		}()
		p.ended = true
		e.yield <- yieldMsg{proc: p, done: true, pnc: pnc}
	}()
	e.schedule(at, class, p)
	return p
}

// schedule queues a wake-up for p at time at in ordering class class.
func (e *Engine) schedule(at Time, class uint64, p *Proc) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.queue.pushEvent(event{at: at, seq: e.seq | class, proc: p})
}

// wake reschedules a parked process to run at the current time. It is used
// by resources and queues when a waiter becomes runnable.
func (e *Engine) wake(p *Proc) {
	if !p.parked {
		panic("des: waking a process that is not parked")
	}
	p.parked = false
	e.blocked--
	e.schedule(e.now, 0, p)
}

// park suspends the calling process with no scheduled wake-up; some other
// process must call wake (via a resource release or queue put) to resume it.
func (p *Proc) park() {
	p.parked = true
	p.eng.blocked++
	p.eng.yield <- yieldMsg{proc: p}
	<-p.resume
}

// Sleep suspends the calling process for d of simulated time. Negative
// durations are treated as zero.
func (p *Proc) Sleep(d Time) { p.sleep(d, 0) }

// SleepLate is Sleep in the boundary class: the caller resumes at now+d
// only after every ordinary event at that time has run, including ones
// scheduled later than this call. A process replaying recorded boundary
// work calls it before every record — zero gaps included — so the work
// lands exactly where its injected original did.
func (p *Proc) SleepLate(d Time) { p.sleep(d, lateBit) }

func (p *Proc) sleep(d Time, class uint64) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now+d, class, p)
	p.eng.yield <- yieldMsg{proc: p}
	<-p.resume
}

// Run executes the simulation until every spawned process has finished.
// It returns the final simulated time. If all remaining processes are
// blocked with no pending events, Run panics with a deadlock report.
//
// While the engine has open injectors (see inject.go), an empty event
// queue parks the engine instead: Run blocks, holding virtual time still,
// until the outside world injects more work or closes the last injector.
// Deadlock detection is necessarily suspended in open mode — a blocked
// process may be waiting on work that has not been injected yet.
func (e *Engine) Run() Time {
	if e.running {
		panic("des: Run called re-entrantly")
	}
	e.running = true
	defer func() {
		e.running = false
		if !e.everStopped {
			e.everStopped = true
			close(e.stopped)
		}
	}()
	for {
		// Injections are applied between event dispatches, so an injected
		// process lands at the frontier without interleaving with a
		// running one.
		e.drainInjections()
		if _, ok := e.nextTime(); !ok {
			if e.openInj > 0 {
				e.applyInjection(<-e.injc) // park: wait for the outside world
				continue
			}
			if len(e.procs) > 0 {
				panic(fmt.Sprintf("des: deadlock at t=%v: %d process(es) blocked: %v",
					e.now, e.blocked, e.blockedNames()))
			}
			break
		}
		e.step()
	}
	e.checkFutures()
	if e.rec.Enabled() {
		e.rec.Emit(int64(e.now), obs.CatEngine, "engine", "engine.stats",
			obs.Int("dispatched", int64(e.dispatched)))
	}
	return e.now
}

// checkFutures panics if host work dispatched through this engine was never
// joined — effects the simulation never ordered.
func (e *Engine) checkFutures() {
	if len(e.openFutures) == 0 {
		return
	}
	names := make([]string, 0, len(e.openFutures))
	for f := range e.openFutures {
		names = append(names, f.name)
	}
	sort.Strings(names)
	panic(fmt.Sprintf("des: engine shut down with %d unjoined future(s): %v", len(names), names))
}

// pruneQueue discards queued wake-ups for processes that already finished,
// so peeking at the head sees real work.
func (e *Engine) pruneQueue() {
	for e.queue.Len() > 0 && e.queue[0].proc.ended {
		e.queue.popEvent()
	}
}

// nextTime reports the earliest pending activity — a queued event or a
// buffered cross-shard post — or ok=false when the engine has nothing
// scheduled. In a ShardSet this is the shard's next-event time (NET), the
// input to the coordinator's safe-horizon computation.
func (e *Engine) nextTime() (Time, bool) {
	e.pruneQueue()
	var t Time
	ok := false
	if e.queue.Len() > 0 {
		t, ok = e.queue[0].at, true
	}
	if len(e.posts) > 0 && (!ok || e.posts[0].at < t) {
		t, ok = e.posts[0].at, true
	}
	return t, ok
}

// step dispatches the single earliest pending activity. Buffered posts win
// time ties with local events: a post due at T is applied (its process
// spawned, allocating the next sequence number) before anything at T runs.
// Because the rule consults only this engine's own state, and posts carry a
// shard-count-invariant (at, srcKey, seq) order, the merged dispatch order
// is identical whether the logical sender shares this engine or lives on
// another shard.
func (e *Engine) step() {
	e.pruneQueue()
	if len(e.posts) > 0 && (e.queue.Len() == 0 || e.posts[0].at <= e.queue[0].at) {
		po := e.posts.pop()
		if po.at < e.now {
			panic(fmt.Sprintf("des: post %q for t=%v applied behind the frontier t=%v (lookahead violation)",
				po.name, po.at, e.now))
		}
		e.spawnAt(po.at, 0, po.name, po.body)
		return
	}
	ev := e.queue.popEvent()
	e.now = ev.at
	e.dispatched++
	ev.proc.resume <- struct{}{}
	msg := <-e.yield
	if msg.pnc != nil {
		panic(fmt.Sprintf("des: process %q panicked at t=%v: %v", msg.proc.name, e.now, msg.pnc))
	}
	if msg.done {
		e.release(msg.proc)
	}
}

// release drops a finished process from the process table (swap-remove by
// its stored index), so what the engine holds follows the processes that
// are alive, not every process it ever ran.
func (e *Engine) release(p *Proc) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.idx], moved.idx = moved, p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// runWindow advances the shard through every pending activity strictly
// before horizon, then returns. Unlike Run it never declares deadlock: a
// shard whose processes are all blocked may be waiting on a cross-shard
// post a later round delivers, so global liveness belongs to the ShardSet
// coordinator. The strict bound is what keeps delivery deterministic — a
// neighbour may still post an event at exactly horizon, and it must arrive
// before anything local at that time runs.
func (e *Engine) runWindow(horizon Time) {
	for {
		t, ok := e.nextTime()
		if !ok || t >= horizon {
			return
		}
		e.step()
	}
}

func (e *Engine) blockedNames() []string {
	var names []string
	for _, p := range e.procs {
		if p.parked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}
