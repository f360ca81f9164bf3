package des

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// --- scenario machinery -------------------------------------------------
//
// A scenario is pure data: logical actors ("gangs") with launch times and
// work scripts, plus the two edge latencies of the hub-and-spokes topology
// the scheduler uses. Running the same scenario at different shard counts
// must produce byte-identical hub logs — every log append happens on the
// hub engine, so the log order IS the merged event order.

type scnGang struct {
	launchAt Time
	sleeps   []Time
}

type scenario struct {
	outLat Time // hub -> gang edge latency (launch lookahead)
	inLat  Time // gang -> hub edge latency (reply lookahead)
	gangs  []scnGang
}

// randomScenario derives a scenario from a seed: small integer latencies
// and sleeps so time collisions (the tie-break paths) actually happen.
func randomScenario(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := scenario{
		outLat: Time(2 + rng.Intn(5)),
		inLat:  Time(1 + rng.Intn(4)),
	}
	nGangs := 2 + rng.Intn(4)
	for g := 0; g < nGangs; g++ {
		gang := scnGang{launchAt: Time(rng.Intn(6))}
		for s, n := 0, 1+rng.Intn(5); s < n; s++ {
			gang.sleeps = append(gang.sleeps, Time(1+rng.Intn(4)))
		}
		sc.gangs = append(sc.gangs, gang)
	}
	return sc
}

// runScenario executes sc on a ShardSet of the given size and returns the
// hub log. Gang g is homed like the scheduler homes jobs: on engine
// 1 + g%(shards-1), or on the hub when there is only one shard. Replies
// carry their send time so delivery can assert the exact edge latency —
// the lookahead property in its strongest form.
func runScenario(t testing.TB, sc scenario, shards int) []string {
	t.Helper()
	ss := NewShardSet(shards)
	hub := ss.Engine(0)
	for k := 1; k < shards; k++ {
		ss.DeclareEdge(0, k, sc.outLat)
		ss.DeclareEdge(k, 0, sc.inLat)
	}
	var log []string
	note := func(p *Proc, msg string) {
		log = append(log, fmt.Sprintf("%v %s", p.Now(), msg))
	}
	hub.Spawn("driver", func(p *Proc) {
		for g := range sc.gangs {
			gang := sc.gangs[g]
			home := 0
			if shards > 1 {
				home = 1 + g%(shards-1)
			}
			if d := gang.launchAt - p.Now(); d > 0 {
				p.Sleep(d)
			}
			g := g
			sent := p.Now()
			ss.Post(hub, home, -1, sc.outLat, fmt.Sprintf("gang%d.launch", g), func(q *Proc) {
				if q.Now() != sent+sc.outLat {
					t.Errorf("gang %d launched at %v, want %v", g, q.Now(), sent+sc.outLat)
				}
				gangEng := q.Engine()
				for s, d := range gang.sleeps {
					q.Sleep(d)
					s, sentBack := s, q.Now()
					ss.Post(gangEng, 0, g, sc.inLat, fmt.Sprintf("gang%d.step%d", g, s), func(r *Proc) {
						if r.Now() != sentBack+sc.inLat {
							t.Errorf("gang %d step %d delivered at %v, want send %v + lat %v",
								g, s, r.Now(), sentBack, sc.inLat)
						}
						note(r, fmt.Sprintf("gang%d.step%d", g, s))
					})
				}
			})
		}
	})
	ss.Run()
	return log
}

// TestShardScenarioInvariantAcrossCounts is the determinism property at
// the engine layer: the same scenario at 1, 2, 3, and 5 shards produces
// the identical hub log.
func TestShardScenarioInvariantAcrossCounts(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		sc := randomScenario(seed)
		base := runScenario(t, sc, 1)
		for _, shards := range []int{2, 3, 5} {
			got := runScenario(t, sc, shards)
			if strings.Join(got, "\n") != strings.Join(base, "\n") {
				t.Fatalf("seed %d: %d-shard log differs from 1-shard:\n1: %v\n%d: %v",
					seed, shards, base, shards, got)
			}
		}
	}
}

// FuzzShardDeterminism extends the property test to fuzzed seeds: any
// scenario the generator can express must be shard-count invariant and
// must satisfy the delivery-latency assertions embedded in runScenario.
func FuzzShardDeterminism(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := randomScenario(seed)
		base := runScenario(t, sc, 1)
		for _, shards := range []int{2, 4} {
			got := runScenario(t, sc, shards)
			if strings.Join(got, "\n") != strings.Join(base, "\n") {
				t.Fatalf("seed %d: %d-shard log differs from 1-shard", seed, shards)
			}
		}
	})
}

// expectPanic runs f and demands a panic containing want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestPostValidation: the lookahead contract is enforced at the Post call.
func TestPostValidation(t *testing.T) {
	t.Run("undeclared edge", func(t *testing.T) {
		ss := NewShardSet(2)
		expectPanic(t, "undeclared edge", func() {
			ss.Post(ss.Engine(0), 1, -1, 5, "x", func(p *Proc) {})
		})
	})
	t.Run("delay below lookahead", func(t *testing.T) {
		ss := NewShardSet(2)
		ss.DeclareEdge(0, 1, 10)
		expectPanic(t, "below edge", func() {
			ss.Post(ss.Engine(0), 1, -1, 5, "x", func(p *Proc) {})
		})
	})
	t.Run("non-positive delay", func(t *testing.T) {
		ss := NewShardSet(1)
		expectPanic(t, "positive delay", func() {
			ss.Post(ss.Engine(0), 0, -1, 0, "x", func(p *Proc) {})
		})
	})
	t.Run("self edge declaration", func(t *testing.T) {
		ss := NewShardSet(2)
		expectPanic(t, "self-edges", func() { ss.DeclareEdge(1, 1, 5) })
	})
	t.Run("zero lookahead edge", func(t *testing.T) {
		ss := NewShardSet(2)
		expectPanic(t, "positive lookahead", func() { ss.DeclareEdge(0, 1, 0) })
	})
	t.Run("foreign engine", func(t *testing.T) {
		ss := NewShardSet(1)
		expectPanic(t, "outside this shard set", func() {
			ss.Post(NewEngine(), 0, -1, 5, "x", func(p *Proc) {})
		})
	})
}

// TestShardSetDeadlockAggregates: a process parked forever on one shard
// deadlocks the whole set, and the panic names it.
func TestShardSetDeadlockAggregates(t *testing.T) {
	ss := NewShardSet(2)
	ss.DeclareEdge(0, 1, 3)
	never := NewWaitGroup(ss.Engine(1))
	never.Add(1)
	ss.Post(ss.Engine(0), 1, -1, 3, "waiter.launch", func(p *Proc) {
		p.Engine().Spawn("stuck", func(q *Proc) { never.Wait(q) })
	})
	expectPanic(t, "deadlock", func() { ss.Run() })
}

// TestShardSetRunTwicePanics mirrors the single-engine re-entry guard.
func TestShardSetRunTwicePanics(t *testing.T) {
	ss := NewShardSet(1)
	ss.Engine(0).Spawn("noop", func(p *Proc) {})
	ss.Run()
	expectPanic(t, "Run called twice", func() { ss.Run() })
}

// TestShardSetInjectorParksAndResumes: the coordinator serves the
// injection boundary exactly like a parked single engine — injections land
// at the global frontier, Close releases Run.
func TestShardSetInjectorParksAndResumes(t *testing.T) {
	ss := NewShardSet(2)
	ss.DeclareEdge(0, 1, 4)
	inj := ss.NewInjector()
	hub := ss.Engine(0)

	done := make(chan Time, 1)
	go func() { done <- ss.Run() }()

	if err := inj.Inject("a", func(p *Proc) {
		if p.Now() != 0 {
			t.Errorf("first injection at t=%v, want 0", p.Now())
		}
		// Fan work out to the other shard; its clock becomes the frontier.
		ss.Post(p.Engine(), 1, -1, 4, "a.work", func(q *Proc) { q.Sleep(6) })
	}); err != nil {
		t.Fatalf("Inject a: %v", err)
	}
	waitParked(t, hub, 10) // probe until shard 1's sleep has moved the frontier
	if err := inj.Inject("b", func(p *Proc) {
		// Lands at the global frontier: shard 1 reached t=10.
		if p.Now() != 10 {
			t.Errorf("second injection at t=%v, want the global frontier 10", p.Now())
		}
	}); err != nil {
		t.Fatalf("Inject b: %v", err)
	}
	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if end := <-done; end != 10 {
		t.Fatalf("Run returned t=%v, want 10", end)
	}
}

// TestShardSetInjectorConcurrentSubmitters is the sharded rerun of
// TestInjectorConcurrentSubmitters: many foreign goroutines inject into a
// running shard set whose spoke shards are busy ticking, under -race.
// Every injection lands exactly once at a non-decreasing frontier.
func TestShardSetInjectorConcurrentSubmitters(t *testing.T) {
	ss := NewShardSet(3)
	hub := ss.Engine(0)
	for k := 1; k < 3; k++ {
		ss.DeclareEdge(0, k, 3)
		ss.DeclareEdge(k, 0, 2)
	}
	inj := ss.NewInjector()
	// Busy spokes: tickers that keep their shards' clocks moving and post
	// progress back to the hub, so injections interleave with real rounds.
	for k := 1; k < 3; k++ {
		k := k
		ss.Post(hub, k, -1, 3, fmt.Sprintf("ticker%d.launch", k), func(p *Proc) {
			gangEng := p.Engine()
			for i := 0; i < 50; i++ {
				p.Sleep(2)
				ss.Post(gangEng, 0, k, 2, "tick", func(q *Proc) {})
			}
		})
	}

	const submitters, each = 8, 25
	var mu sync.Mutex
	seen := 0
	var last Time

	done := make(chan Time, 1)
	go func() { done <- ss.Run() }()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				err := inj.Inject("job", func(p *Proc) {
					at := p.Now()
					mu.Lock()
					if at < last {
						t.Errorf("frontier went backwards: %v after %v", at, last)
					}
					last = at
					seen++
					mu.Unlock()
					p.Sleep(3)
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
	mu.Lock()
	defer mu.Unlock()
	if seen != submitters*each {
		t.Fatalf("saw %d injections, want %d", seen, submitters*each)
	}
}

// TestShardSetUnjoinedFuturePanics: the leak check covers every shard.
func TestShardSetUnjoinedFuturePanics(t *testing.T) {
	ss := NewShardSet(2)
	ss.DeclareEdge(0, 1, 3)
	ss.Post(ss.Engine(0), 1, -1, 3, "leaker", func(p *Proc) {
		f := p.Engine().NewFuture("orphan")
		f.Complete()
	})
	expectPanic(t, "unjoined future", func() { ss.Run() })
}
