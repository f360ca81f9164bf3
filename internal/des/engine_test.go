package des

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		woke = p.Now()
	})
	end := e.Run()
	if woke != 5*Millisecond {
		t.Errorf("woke at %v, want 5ms", woke)
	}
	if end != 5*Millisecond {
		t.Errorf("simulation ended at %v, want 5ms", end)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-3)
		if p.Now() != 0 {
			t.Errorf("time moved on zero sleep: %v", p.Now())
		}
	})
	e.Run()
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		var order []string
		e := NewEngine()
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Spawn(name, func(p *Proc) {
				p.Sleep(Time(10-i) * Microsecond) // reverse wake order
				order = append(order, p.Name())
				p.Sleep(Microsecond) // everyone collides at later times too
				order = append(order, p.Name())
			})
		}
		e.Run()
		return order
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("trial %d: length %d != %d", trial, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: order diverged at %d: %q vs %q", trial, i, got[i], first[i])
			}
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Millisecond)
		e.Spawn("child", func(c *Proc) {
			if c.Now() != Millisecond {
				t.Errorf("child started at %v, want 1ms", c.Now())
			}
			childRan = true
		})
		p.Sleep(Millisecond)
	})
	e.Run()
	if !childRan {
		t.Error("child never ran")
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 1, 10*Microsecond)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	for i, w := range want {
		if ends[i] != w {
			t.Errorf("user %d finished at %v, want %v", i, ends[i], w)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dual", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, 1, 10*Microsecond)
			ends = append(ends, p.Now())
		})
	}
	end := e.Run()
	if end != 20*Microsecond {
		t.Errorf("4 jobs on 2 servers ended at %v, want 20us", end)
	}
	if len(ends) != 4 {
		t.Fatalf("got %d completions", len(ends))
	}
}

func TestResourceFIFONoOvertake(t *testing.T) {
	// A big request at the head of the line must not be overtaken by a
	// small one that would fit.
	e := NewEngine()
	r := NewResource(e, "pool", 2)
	var order []string
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(10 * Microsecond)
		r.Release(2)
	})
	e.Spawn("big", func(p *Proc) {
		p.Sleep(Microsecond)
		r.Acquire(p, 2)
		order = append(order, "big")
		p.Sleep(10 * Microsecond)
		r.Release(2)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Errorf("grant order %v, want [big small]", order)
	}
}

func TestQueueBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "ch")
	var got any
	var when Time
	e.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		when = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		q.Put(42)
	})
	e.Run()
	if got != 42 {
		t.Errorf("got %v, want 42", got)
	}
	if when != 7*Microsecond {
		t.Errorf("received at %v, want 7us", when)
	}
}

func TestQueueFIFOOrderAndMultipleWaiters(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "ch")
	var recv []int
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) {
			recv = append(recv, q.Get(p).(int))
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(Microsecond)
		for i := 1; i <= 3; i++ {
			q.Put(i * 100)
		}
	})
	e.Run()
	for i, v := range recv {
		if v != (i+1)*100 {
			t.Errorf("recv[%d]=%d, want %d", i, v, (i+1)*100)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue(e, "ch")
	if _, ok := q.TryGet(); ok {
		t.Error("TryGet on empty queue returned ok")
	}
	q.Put("x")
	if v, ok := q.TryGet(); !ok || v != "x" {
		t.Errorf("TryGet = %v,%v", v, ok)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt Time
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i) * Microsecond
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	e.Run()
	if doneAt != 3*Microsecond {
		t.Errorf("waitgroup released at %v, want 3us", doneAt)
	}
}

// TestWaitGroupOneShot: at count 1 a WaitGroup is a one-shot broadcast —
// every earlier waiter wakes at the Done, in the order it parked, and a
// Wait after the Done returns at once.
func TestWaitGroupOneShot(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(1)
	var order []int
	var woken []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			wg.Wait(p)
			order = append(order, i)
			woken = append(woken, p.Now())
		})
	}
	e.Spawn("done", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		wg.Done()
	})
	e.Spawn("late", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wg.Wait(p)
		order = append(order, 3)
		woken = append(woken, p.Now())
	})
	e.Run()
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("wake order %v, want [0 1 2 3]", order)
	}
	if !slices.Equal(woken, []Time{3 * Microsecond, 3 * Microsecond, 3 * Microsecond, 5 * Microsecond}) {
		t.Errorf("woken at %v, want three at 3us and the late waiter at 5us", woken)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected deadlock panic")
		}
	}()
	e := NewEngine()
	q := NewQueue(e, "never")
	e.Spawn("stuck", func(p *Proc) { q.Get(p) })
	e.Run()
}

// TestFinishedProcessesAreReleased: the process table follows the live
// processes. Ten thousand short processes come and go beside three parked
// ones; between dispatches the engine holds exactly the live ones, each at
// the index it remembers, and the deadlock report that the table exists
// for still names the parked ones, sorted.
func TestFinishedProcessesAreReleased(t *testing.T) {
	const churn = 10_000
	e := NewEngine()
	q := NewQueue(e, "never")
	for _, name := range []string{"stuck-c", "stuck-a", "stuck-b"} {
		e.Spawn(name, func(p *Proc) { q.Get(p) })
	}
	table := func(when string, want int) {
		t.Helper()
		if len(e.procs) != want {
			t.Fatalf("%s: engine holds %d processes, want %d", when, len(e.procs), want)
		}
		for i, p := range e.procs {
			if p.idx != i || p.ended {
				t.Fatalf("%s: slot %d holds %q with idx %d ended %v", when, i, p.name, p.idx, p.ended)
			}
		}
	}
	e.Spawn("churn", func(p *Proc) {
		for i := 0; i < churn; i++ {
			// Two per round, finishing in the order opposite to their slots,
			// so both the last slot and an inner one are released.
			e.Spawn("short", func(c *Proc) { c.Sleep(2) })
			e.Spawn("shorter", func(c *Proc) { c.Sleep(1) })
			table("mid-round", 6)
			p.Sleep(3)
			table("after round", 4)
		}
	})
	defer func() {
		const want = "3 process(es) blocked: [stuck-a stuck-b stuck-c]"
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("deadlock report %q, want it to contain %q", r, want)
		}
		table("after the run", 3)
	}()
	e.Run()
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected panic propagation")
		}
	}()
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) { panic("boom") })
	e.Run()
}

func TestAcquireOverCapacityPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected panic")
		}
	}()
	e := NewEngine()
	r := NewResource(e, "r", 1)
	e.Spawn("p", func(p *Proc) { r.Acquire(p, 2) })
	e.Run()
}

// Property: for an M/D/1-style queue on a unit resource, total completion
// time equals the sum of service times when all arrivals happen at t=0.
func TestPropertyResourceWorkConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		e := NewEngine()
		r := NewResource(e, "r", 1)
		var total Time
		for i, d := range raw {
			svc := Time(d%1000) * Nanosecond
			total += svc
			e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) { r.Use(p, 1, svc) })
		}
		return e.Run() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: simulated time is monotone from any process's perspective.
func TestPropertyTimeMonotone(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) > 40 {
			delays = delays[:40]
		}
		e := NewEngine()
		ok := true
		q := NewQueue(e, "relay")
		e.Spawn("producer", func(p *Proc) {
			last := p.Now()
			for _, d := range delays {
				p.Sleep(Time(d))
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
				q.Put(int(d))
			}
			q.Put(-1)
		})
		e.Spawn("consumer", func(p *Proc) {
			last := p.Now()
			for {
				v := q.Get(p)
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
				if v == -1 {
					return
				}
				p.Sleep(Time(v.(int)) / 2)
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineSleepLoop(b *testing.B) {
	e := NewEngine()
	e.Spawn("looper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkEnginePingPong(b *testing.B) {
	e := NewEngine()
	a2b := NewQueue(e, "a2b")
	b2a := NewQueue(e, "b2a")
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			a2b.Put(i)
			b2a.Get(p)
		}
		a2b.Put(-1)
	})
	e.Spawn("b", func(p *Proc) {
		for {
			if a2b.Get(p) == -1 {
				return
			}
			b2a.Put(0)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineSpawnChurn spawns b.N processes that each sleep once and
// end, a few at a time — the shape of a long job stream, where processes
// come and go and only a handful are ever alive. retained-procs is what
// the engine still holds when the run ends.
func BenchmarkEngineSpawnChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	retained := 0
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Spawn("short", func(c *Proc) { c.Sleep(Nanosecond) })
			if i%4 == 3 {
				p.Sleep(2 * Nanosecond)
			}
		}
		p.Sleep(2 * Nanosecond)
		retained = len(e.procs) - 1 // all but the spawner itself
	})
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(retained), "retained-procs")
}
