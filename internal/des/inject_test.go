package des

import (
	"sync"
	"testing"
	"time"
)

// TestInjectorParksAndResumes proves the open-system contract: an engine
// with an open injector does not exit (or declare deadlock) when its event
// queue drains; injected work runs at the frontier; Close releases Run.
func TestInjectorParksAndResumes(t *testing.T) {
	eng := NewEngine()
	inj := eng.NewInjector()

	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()

	// First injection: the engine is parked at t=0 with nothing to do.
	if err := inj.Inject("a", func(p *Proc) {
		if p.Now() != 0 {
			t.Errorf("first injection at t=%v, want 0", p.Now())
		}
		p.Sleep(10)
		note("a")
	}); err != nil {
		t.Fatalf("Inject a: %v", err)
	}

	// Wait until the engine has drained process a and parked again, then
	// inject b: it must start at the frontier left by a (t=10), not at 0.
	waitParked(t, eng, 10)
	if err := inj.Inject("b", func(p *Proc) {
		if p.Now() != 10 {
			t.Errorf("second injection at t=%v, want 10", p.Now())
		}
		p.Sleep(5)
		note("b")
	}); err != nil {
		t.Fatalf("Inject b: %v", err)
	}
	waitParked(t, eng, 15)

	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	end := <-done
	if end != 15 {
		t.Fatalf("Run returned t=%v, want 15", end)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("execution order %v, want [a b]", order)
	}
}

// waitParked spins until the engine has advanced to at least want and gone
// idle. Reading now from another goroutine is racy in general; here the
// engine is parked (quiescent) once the condition holds, and the test only
// proceeds after it does. The injection channel is the synchronization.
func waitParked(t *testing.T, eng *Engine, want Time) {
	t.Helper()
	probe := make(chan Time, 1)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := injectProbe(eng, probe); err != nil {
			return // engine stopped; let the caller fail on its own terms
		}
		if at := <-probe; at >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("engine never reached t=%v", want)
}

// injectProbe runs a no-op process that reports the frontier time.
func injectProbe(eng *Engine, probe chan Time) error {
	return eng.inject(injMsg{name: "probe", body: func(p *Proc) { probe <- p.Now() }})
}

// TestInjectorConcurrentSubmitters drives many foreign goroutines into one
// engine under the race detector: every injection must land exactly once,
// at a monotonically non-decreasing frontier.
func TestInjectorConcurrentSubmitters(t *testing.T) {
	eng := NewEngine()
	inj := eng.NewInjector()
	const submitters, each = 8, 25

	var mu sync.Mutex
	seen := 0
	var last Time

	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				err := inj.Inject("job", func(p *Proc) {
					at := p.Now()
					mu.Lock()
					// Spawn times never go backwards: each injection lands
					// at the frontier, which only advances. (The engine
					// serializes injection bodies, but the map under test
					// is still guarded — the -race run is the point.)
					if at < last {
						t.Errorf("frontier went backwards: %v after %v", at, last)
					}
					last = at
					mu.Unlock()
					p.Sleep(3)
					mu.Lock()
					seen++
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("Inject: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
	if seen != submitters*each {
		t.Fatalf("saw %d injections, want %d", seen, submitters*each)
	}
}

// TestInjectorAfterStop: once Run has returned, injections fail fast with
// ErrEngineStopped instead of blocking forever.
func TestInjectorAfterStop(t *testing.T) {
	eng := NewEngine()
	inj := eng.NewInjector()
	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()
	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
	// The injector itself was closed to let Run return, so the first gate
	// it hits is its own closed flag.
	if err := inj.Inject("late", func(p *Proc) {}); err != ErrInjectorClosed {
		t.Fatalf("Inject after stop: err=%v, want ErrInjectorClosed", err)
	}
	// The engine-level boundary (a racing injector that never observed the
	// shutdown) fails fast instead of blocking on a drained channel.
	if err := eng.inject(injMsg{name: "late", body: func(p *Proc) {}}); err != ErrEngineStopped {
		t.Fatalf("engine inject after stop: err=%v, want ErrEngineStopped", err)
	}
}

// TestInjectorClosedRejects: a closed injector refuses work even while the
// engine is still running (another injector holds it open).
func TestInjectorClosedRejects(t *testing.T) {
	eng := NewEngine()
	a := eng.NewInjector()
	b := eng.NewInjector()
	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()
	if err := a.Close(); err != nil {
		t.Fatalf("Close a: %v", err)
	}
	if err := a.Inject("x", func(p *Proc) {}); err != ErrInjectorClosed {
		t.Fatalf("Inject on closed injector: err=%v, want ErrInjectorClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	ran := make(chan struct{})
	if err := b.Inject("y", func(p *Proc) { close(ran) }); err != nil {
		t.Fatalf("Inject on live injector: %v", err)
	}
	<-ran
	if err := b.Close(); err != nil {
		t.Fatalf("Close b: %v", err)
	}
	<-done
}

// TestInjectorWhileBusy: injections submitted while the engine is mid-run
// are applied between events, at the then-current frontier.
func TestInjectorWhileBusy(t *testing.T) {
	eng := NewEngine()
	inj := eng.NewInjector()
	// A long-running background process keeps the engine busy.
	tick := make(chan Time, 64)
	eng.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(2)
			select {
			case tick <- p.Now():
			default:
			}
		}
	})
	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()

	<-tick // engine is demonstrably past t=0
	at := make(chan Time, 1)
	if err := inj.Inject("probe", func(p *Proc) { at <- p.Now() }); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if got := <-at; got <= 0 || got > 100 {
		t.Fatalf("injection landed at t=%v, want within the ticker's run (0, 100]", got)
	}
	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if end := <-done; end != 100 {
		t.Fatalf("Run returned t=%v, want 100", end)
	}
}

// TestBoundaryWorkRunsAfterOrdinaryTies pins the boundary-ordering
// contract (doc.go): work injected while the engine sits at T, and its
// replayed twin — a process whose wake-up for T was scheduled long before —
// both run after every ordinary event at T, even one scheduled after they
// were.
func TestBoundaryWorkRunsAfterOrdinaryTies(t *testing.T) {
	const T = 10

	// Live. The driver holds the engine at T, yielding, until the injection
	// has been applied (its process exists, queued at T), and only then
	// spawns the ordinary process that sets the flag.
	eng := NewEngine()
	inj := eng.NewInjector()
	set := false
	var liveSaw bool
	var liveAt Time
	eng.Spawn("driver", func(p *Proc) {
		p.Sleep(T)
		go func() {
			if err := inj.Inject("boundary", func(q *Proc) { liveSaw, liveAt = set, q.Now() }); err != nil {
				t.Errorf("Inject: %v", err)
			}
			if err := inj.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		for before := len(eng.procs); len(eng.procs) == before; {
			p.Sleep(0) // back to the dispatch loop, which drains injections
		}
		eng.Spawn("setter", func(*Proc) { set = true })
	})
	eng.Run()
	if !liveSaw || liveAt != T {
		t.Errorf("injected work at t=%v saw flag=%v; want it at t=%v behind the ordinary setter", liveAt, liveSaw, Time(T))
	}

	// Replayed. Two records stamped T: the first must see the setter's
	// effect although its wake-up is older, and the second — a zero gap —
	// must see the ordinary event the first one caused.
	eng = NewEngine()
	set = false
	var first, second bool
	eng.Spawn("replay", func(p *Proc) {
		p.SleepLate(T)
		first = set && p.Now() == T
		caused := false
		eng.Spawn("caused", func(*Proc) { caused = true })
		p.SleepLate(0)
		second = caused && p.Now() == T
	})
	eng.Spawn("setter", func(p *Proc) {
		p.Sleep(T)
		set = true
	})
	eng.Run()
	if !first || !second {
		t.Errorf("replayed records at T ran ahead of ordinary events: first=%v second=%v", first, second)
	}
}
