// Package fleet federates many gpmrd cluster shards behind one front
// door: a router tier that consistent-hashes tenants onto shards
// (bounded-load variant, so a hot tenant cannot melt one shard),
// health-checks each shard, retries and fails over proxied submissions,
// and re-admits a lost shard's unfinished jobs onto survivors. Bounded-load
// routing is the fleet's one load leveller; inside a job, core still
// balances chunks between its GPUs. Each shard keeps its own
// byte-replayable arrival trace, stamped with a fleet header (shard id,
// ring epoch) by the registration handshake, so a whole multi-shard run
// replays deterministically: gpmrfleet -replay replays every shard trace
// and merges the reports. See DESIGN.md, "Fleet".
package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Ring is a consistent-hash ring over shard IDs with the bounded-load
// refinement (Mirrokni et al.): a lookup walks clockwise from the key's
// point and takes the first eligible shard whose load is under the
// bound c·(total+1)/n, so keys spill deterministically to the next
// shard instead of melting a hot one. The ring is immutable; liveness
// and load are the caller's per-lookup inputs, which keeps membership
// changes (a dead shard) a matter of eligibility, not rehashing.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard string
}

// DefaultReplicas is the vnode count per shard: what the router uses, and
// what NewRing substitutes for replicas <= 0.
const DefaultReplicas = 64

// NewRing builds a ring with the given virtual nodes per shard.
func NewRing(shards []string, replicas int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one shard")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{replicas: replicas}
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("fleet: empty shard id")
		}
		if seen[s] {
			return nil, fmt.Errorf("fleet: duplicate shard id %q", s)
		}
		seen[s] = true
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", s, i)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard // total order even on hash collisions
	})
	return r, nil
}

// hash64 is the ring's point hash: fnv-1a (stable across processes)
// run through a 64-bit finalizer. The finalizer matters: raw fnv-1a of
// short keys like "s0#17" barely avalanches into the high bits, which
// the ring's sort order lives on — without it a shard's vnodes clump
// into one arc and some shards own almost no keyspace.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Pick routes a key. eligible maps live shard IDs to their current load
// (in-flight jobs, in whatever unit the caller tracks); shards absent
// from the map are skipped. With c > 0, the walk takes the first
// eligible shard whose load stays under ceil(c·(total+1)/n), capped at
// total+1 (which every shard is under); if every eligible shard is at the
// bound, the least-loaded one wins. Any other c (<= 0, or NaN) disables
// bounding: the first eligible shard in ring order wins (plain
// consistent hashing). Deterministic: same ring, key, loads, and factor
// always pick the same shard.
func (r *Ring) Pick(key string, eligible map[string]int, c float64) (string, bool) {
	if len(eligible) == 0 {
		return "", false
	}
	var bound int
	if c > 0 {
		total := 0
		for _, l := range eligible {
			total += l
		}
		// ceil(c·(total+1)/n): every shard may hold its fair share of the
		// load including the key being placed, scaled by c. A bound above
		// total+1 binds no shard, and capping there keeps a huge c from
		// overflowing int.
		bound = int(min(math.Ceil(c*float64(total+1)/float64(len(eligible))), float64(total+1)))
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var walk []string // distinct eligible shards in ring order
	seen := make(map[string]bool, len(eligible))
	for i := 0; i < len(r.points) && len(walk) < len(eligible); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		if _, ok := eligible[p.shard]; !ok {
			continue
		}
		walk = append(walk, p.shard)
	}
	if len(walk) == 0 {
		return "", false
	}
	if !(c > 0) {
		return walk[0], true
	}
	for _, s := range walk {
		if eligible[s] < bound {
			return s, true
		}
	}
	// Every shard is at the bound: fall back to the least-loaded one,
	// ties broken by ring order.
	best := walk[0]
	for _, s := range walk[1:] {
		if eligible[s] < eligible[best] {
			best = s
		}
	}
	return best, true
}
