// Package mph builds a minimal perfect hash over a fixed word dictionary,
// standing in for the paper's use of Cichelli-style minimal perfect hashing
// to turn WordOccurrence's string keys into unique 4-byte integers. The
// construction is the "hash, displace" scheme (CHD without compression):
// words are bucketed by a first-level hash, buckets are seeded largest
// first, and each bucket searches for a displacement seed that maps all its
// words to free slots. Lookup is two hash evaluations — cheap enough for a
// GPU map kernel, which is the property the paper exploits.
package mph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Table is an immutable minimal perfect hash over the dictionary it was
// built from: Lookup maps each dictionary word to a distinct value in
// [0, Len()).
type Table struct {
	seeds []int32
	slots int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hash(seed uint64, s string) uint64 {
	h := uint64(fnvOffset) ^ (seed * 0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Build constructs a Table for words, which must be non-empty and free of
// duplicates.
func Build(words []string) (*Table, error) {
	n := len(words)
	if n == 0 {
		return nil, errors.New("mph: empty dictionary")
	}
	nBuckets := (n + 3) / 4
	// Buckets laid out flat by count-then-scatter: bucket b's words are
	// flat[start[b]:start[b+1]], in dictionary order.
	bucketOf := make([]int32, n)
	size := make([]int32, nBuckets)
	for i, w := range words {
		b := int32(hash(0, w) % uint64(nBuckets))
		bucketOf[i] = b
		size[b]++
	}
	start := make([]int32, nBuckets+1)
	maxSize := int32(0)
	for b, sz := range size {
		start[b+1] = start[b] + sz
		maxSize = max(maxSize, sz)
	}
	flat := make([]string, n)
	next := slices.Clone(start[:nBuckets])
	for i, w := range words {
		b := bucketOf[i]
		flat[next[b]] = w
		next[b]++
	}
	// Largest buckets first (they have the fewest seed choices), ties by
	// bucket index.
	order := make([]int32, nBuckets)
	for b := range order {
		order[b] = int32(b)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(size[b], size[a]) })
	taken := make([]bool, n)
	seeds := make([]int32, nBuckets)
	marks := make([]int, 0, maxSize)
	for _, bi := range order {
		bucket := flat[start[bi]:start[bi+1]]
		if len(bucket) == 0 {
			break // only empty buckets remain, and they need no seed
		}
	seedSearch:
		for seed := int32(1); ; seed++ {
			if seed > 1<<22 {
				return nil, fmt.Errorf("mph: no displacement found for bucket of %d words (duplicate words?)", len(bucket))
			}
			marks = marks[:0]
			for _, w := range bucket {
				slot := int(hash(uint64(seed), w) % uint64(n))
				if taken[slot] {
					for _, m := range marks {
						taken[m] = false
					}
					continue seedSearch
				}
				// Reject intra-bucket collisions too.
				taken[slot] = true
				marks = append(marks, slot)
			}
			seeds[bi] = seed
			break
		}
	}
	return &Table{seeds: seeds, slots: n}, nil
}

// Len returns the dictionary size (and the size of the hash's range).
func (t *Table) Len() int { return t.slots }

// Lookup returns the word's slot in [0, Len()). Words outside the build
// dictionary return an arbitrary slot; the paper's benchmark draws all
// input from the dictionary, so no membership test is needed.
func (t *Table) Lookup(w string) uint32 {
	b := hash(0, w) % uint64(len(t.seeds))
	return uint32(hash(uint64(t.seeds[b]), w) % uint64(t.slots))
}
