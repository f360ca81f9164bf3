package des

import (
	"errors"
	"sync/atomic"

	"repro/internal/obs"
)

// Injection errors. Inject and Close report them instead of panicking
// because they are the engine's only concurrency boundary: callers live on
// foreign goroutines and races with shutdown are expected, not bugs.
var (
	// ErrEngineStopped reports an injection into an engine whose Run has
	// already returned.
	ErrEngineStopped = errors.New("des: engine stopped")
	// ErrInjectorClosed reports an injection through a closed injector.
	ErrInjectorClosed = errors.New("des: injector closed")
)

// injMsg is one message on the engine's injection channel.
type injMsg struct {
	name  string
	body  func(p *Proc)
	close bool
}

// Injector is the engine's open-system primitive: a thread-safe handle that
// lets code OUTSIDE the simulation — an HTTP handler, a test driver, any
// foreign goroutine — add work to a running engine at its current
// virtual-time frontier. While at least one injector is open, Run treats an
// empty event queue as "parked", not "finished": the engine blocks waiting
// for the next injection instead of exiting (or declaring deadlock), which
// is what turns a batch simulation into a long-running service.
//
// Each injection spawns a fresh process at the frontier (the time of the
// most recently dispatched event) in the boundary class, behind every
// ordinary event at that time; the body runs with full engine access,
// exactly as if it had been part of the simulation all along. Injections
// are applied in submission order, between event dispatches, so they never
// interleave with a running process.
//
// Close releases the park: once every injector is closed and all processes
// have finished, Run returns. Inject and Close are safe to call from any
// goroutine, but an open-mode engine must be driven by exactly one Run
// call; after Run returns, both report ErrEngineStopped.
type Injector struct {
	eng    *Engine
	closed atomic.Bool
}

// NewInjector opens an injection handle on the engine. It must be called
// before Run starts (injector accounting is engine state); open injectors
// keep Run from returning until each is closed.
func (e *Engine) NewInjector() *Injector {
	if e.running {
		panic("des: NewInjector while the engine is running")
	}
	e.openInj++
	return &Injector{eng: e}
}

// Inject schedules body to run as a new process named name at the engine's
// current virtual-time frontier. The handoff is synchronous: Inject blocks
// until the running engine accepts the message (that backpressure is the
// point of open-system mode), so a nil return means the body WILL run —
// the engine never exits with accepted-but-unapplied injections. Must not
// be called from a simulated process: processes spawn work directly with
// Engine.Spawn.
func (i *Injector) Inject(name string, body func(p *Proc)) error {
	if i.closed.Load() {
		return ErrInjectorClosed
	}
	return i.eng.inject(injMsg{name: name, body: body})
}

// Close ends this injector's hold on the engine. Idempotent; after the
// last injector closes and every process finishes, Run returns.
func (i *Injector) Close() error {
	if !i.closed.CompareAndSwap(false, true) {
		return nil
	}
	return i.eng.inject(injMsg{close: true})
}

// inject hands a message to the running engine, failing once Run has
// returned rather than blocking forever.
func (e *Engine) inject(m injMsg) error {
	select {
	case <-e.stopped:
		return ErrEngineStopped
	default:
	}
	select {
	case e.injc <- m:
		return nil
	case <-e.stopped:
		return ErrEngineStopped
	}
}

// applyInjection executes one injection on the engine's goroutine at the
// current frontier.
func (e *Engine) applyInjection(m injMsg) {
	if m.close {
		e.openInj--
		if e.openInj < 0 {
			panic("des: injector closed twice")
		}
		return
	}
	if e.rec.Enabled() {
		// Injections exist only in live (wall-clock-driven) runs; replayed
		// and batch simulations spawn their arrivals as ordinary processes,
		// so these events never appear on a determinism-checked path.
		e.rec.Emit(int64(e.now), obs.CatSim, "injector", "inject", obs.A("name", m.name))
	}
	e.spawnAt(e.now, lateBit, m.name, m.body)
}

// drainInjections applies every injection already queued, without blocking.
func (e *Engine) drainInjections() {
	for {
		select {
		case m := <-e.injc:
			e.applyInjection(m)
		default:
			return
		}
	}
}
