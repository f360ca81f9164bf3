package gpu

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/des"
)

// Backend is the execution seam for kernels' functional work. Every
// Device.Launch/LaunchFor hands its closure to a Backend: Serial runs it
// inline on the simulated process's goroutine (the original behaviour),
// Pool dispatches it to a bounded set of real worker goroutines and the
// device joins the result no later than the kernel's simulated completion
// event. Either way the DES schedule — and therefore every trace, output
// byte, and steal decision — is identical; only host wall-clock changes,
// because kernel work from different simulated GPUs (and different tenant
// jobs) can occupy real cores concurrently.
//
// Closure-capture contract (what makes the Pool backend safe): a kernel
// closure runs concurrently with every other simulated process while its
// issuing process sleeps through the kernel's modeled duration. It may
// therefore touch only (a) state owned by the issuing process — emitted-
// pair buffers, the rank's resident accumulation pairs, locals of the
// enclosing stage — and (b) immutable shared inputs (chunk data, lookup
// tables, center/matrix arrays). It must never call into the des engine,
// the fabric, or the device, and must not touch state another rank's
// process or closure can reach. See DESIGN.md, "Execution backends".
type Backend interface {
	// Start begins fn's execution and returns its join handle; nil means
	// fn already ran inline (or fn was nil). name labels the work in
	// leak and panic diagnostics — pass the kernel name.
	Start(eng *des.Engine, name string, fn func()) *des.Future
	// Close releases the backend's workers. Idempotent; must only be
	// called after the engine has run to completion (every future
	// joined).
	Close()
	// String names the backend for reports ("serial", "pool(8)").
	String() string
}

// Serial is the inline backend: closures run on the issuing process's
// goroutine before the kernel's simulated duration elapses. Zero value is
// ready to use.
type Serial struct{}

// Start implements Backend by running fn inline.
func (Serial) Start(_ *des.Engine, _ string, fn func()) *des.Future {
	if fn != nil {
		fn()
	}
	return nil
}

// Close implements Backend (no resources to release).
func (Serial) Close() {}

func (Serial) String() string { return "serial" }

// Pool executes kernel closures on a fixed set of worker goroutines.
// Dispatch blocks (in host time only) when every worker is busy and the
// submission buffer is full — backpressure that bounds in-flight host
// work without ever touching the simulated clock.
type Pool struct {
	workers int
	jobs    chan poolJob
	wg      sync.WaitGroup
	once    sync.Once
}

type poolJob struct {
	fn  func()
	fut *des.Future
}

// NewPool starts a backend with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, jobs: make(chan poolJob, workers)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				j.run()
			}
		}()
	}
	return p
}

// run executes one closure, routing a panic into the future so the
// joining simulated process re-raises it under its own name.
func (j poolJob) run() {
	defer func() {
		if r := recover(); r != nil {
			j.fut.Fail(r)
		} else {
			j.fut.Complete()
		}
	}()
	j.fn()
}

// Start implements Backend by dispatching fn to a worker.
func (p *Pool) Start(eng *des.Engine, name string, fn func()) *des.Future {
	if fn == nil {
		return nil
	}
	fut := eng.NewFuture(name)
	p.jobs <- poolJob{fn: fn, fut: fut}
	return fut
}

// Close shuts the workers down after they drain outstanding submissions.
func (p *Pool) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

func (p *Pool) String() string { return fmt.Sprintf("pool(%d)", p.workers) }

// NewBackend maps a worker-count knob onto a backend: 0 is Serial (the
// default), n >= 1 is Pool(n), and negative means Pool(GOMAXPROCS) — "use
// the machine". This is the decoding used by core.Config.Workers,
// cluster.Config.Workers, and the gpmrbench -workers flag.
func NewBackend(workers int) Backend {
	switch {
	case workers == 0:
		return Serial{}
	case workers < 0:
		return NewPool(runtime.GOMAXPROCS(0))
	default:
		return NewPool(workers)
	}
}
