package fleet

import (
	"fmt"
	"math"
	"testing"
)

func eligibleZero(ids ...string) map[string]int {
	m := make(map[string]int, len(ids))
	for _, id := range ids {
		m[id] = 0
	}
	return m
}

// TestRingDeterminism pins the routing function: same ring, key, loads,
// and factor always pick the same shard, across ring constructions.
func TestRingDeterminism(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	r1, err := NewRing(ids, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	r2, err := NewRing([]string{"s2", "s0", "s1"}, 0) // order must not matter
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("tenant%d", i)
		a, ok1 := r1.Pick(key, eligibleZero(ids...), 1.25)
		b, ok2 := r2.Pick(key, eligibleZero(ids...), 1.25)
		if !ok1 || !ok2 || a != b {
			t.Fatalf("key %s: picks differ (%s vs %s)", key, a, b)
		}
	}
}

// TestRingDistribution checks every shard owns a reasonable slice of
// the keyspace (vnodes doing their job).
func TestRingDistribution(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3"}
	r, err := NewRing(ids, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	counts := make(map[string]int)
	const keys = 1000
	for i := 0; i < keys; i++ {
		s, ok := r.Pick(fmt.Sprintf("k%d", i), eligibleZero(ids...), -1)
		if !ok {
			t.Fatalf("no pick for k%d", i)
		}
		counts[s]++
	}
	for _, id := range ids {
		if counts[id] < keys/len(ids)/4 {
			t.Fatalf("shard %s owns only %d of %d keys: %v", id, counts[id], keys, counts)
		}
	}
}

// TestRingBoundedLoadSpill: a hot shard at its bound spills the key to
// the next eligible shard on the ring, deterministically; with the
// bound disabled the key sticks to the hot shard.
func TestRingBoundedLoadSpill(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	r, err := NewRing(ids, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	key := "hot-tenant"
	home, _ := r.Pick(key, eligibleZero(ids...), -1) // plain hashing home
	loads := eligibleZero(ids...)
	loads[home] = 10 // total 10, n 3 → bound ceil(1.25·11/3) = 5
	spill, ok := r.Pick(key, loads, 1.25)
	if !ok || spill == home {
		t.Fatalf("hot shard %s did not spill (got %s)", home, spill)
	}
	again, _ := r.Pick(key, loads, 1.25)
	if spill != again {
		t.Fatalf("spill is not deterministic: %s vs %s", spill, again)
	}
	stick, _ := r.Pick(key, loads, -1)
	if stick != home {
		t.Fatalf("plain hashing moved the key: %s vs home %s", stick, home)
	}
	// Ineligible home (shard down): even plain hashing moves on.
	delete(loads, home)
	moved, ok := r.Pick(key, loads, -1)
	if !ok || moved == home {
		t.Fatalf("dead shard still picked: %s", moved)
	}
	// Nothing eligible: no pick.
	if _, ok := r.Pick(key, nil, 1.25); ok {
		t.Fatal("picked a shard from an empty eligible set")
	}
}

// TestRingRejectsBadShards pins constructor validation.
func TestRingRejectsBadShards(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty shard id accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate shard id accepted")
	}
}

// TestRingHugeLoadFactorNeverBinds: a load factor too large to bind any
// shard routes like plain hashing — one tenant's 30 picks all land on its
// home — and so does a NaN factor. (A huge or infinite c used to overflow
// the bound to 1, and NaN fell through both the bounded and the plain
// branch, so each spread the tenant 10/10/10 like least-loaded routing.)
func TestRingHugeLoadFactorNeverBinds(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	r, err := NewRing(ids, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	home, _ := r.Pick("hot", eligibleZero(ids...), -1)
	for _, c := range []float64{1e6, 1e300, math.Inf(1), math.NaN()} {
		loads := eligibleZero(ids...)
		for i := 0; i < 30; i++ {
			s, _ := r.Pick("hot", loads, c)
			loads[s]++
		}
		if loads[home] != 30 {
			t.Errorf("c=%v: 30 picks spread %v, want all on home %s", c, loads, home)
		}
	}
}
