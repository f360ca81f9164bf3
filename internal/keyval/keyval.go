// Package keyval provides the key–value pair buffers that flow through the
// GPMR pipeline. Keys are 4-byte integers, as in the paper — GPMR imposes
// no strict key definition, but every benchmark (including WordOccurrence,
// via a minimal perfect hash) maps its keys onto uint32 for coalesced
// access. Values are a generic fixed-size type.
//
// Buffers carry both a physical pair count (the data actually materialized
// and computed on, so results stay exactly checkable) and a virtual pair
// count (the paper-scale workload the cost model charges for); see the
// virtual replication discussion in DESIGN.md.
package keyval

import "slices"

// Pairs is a structure-of-arrays pair buffer: Keys[i] goes with Vals[i].
// The SoA layout mirrors what a GPU implementation needs for coalescing.
type Pairs[V any] struct {
	Keys []uint32
	Vals []V

	// Virt is the virtual pair count this buffer represents. Zero means
	// "same as physical" and is normalized by VirtLen.
	Virt int64
}

// Len returns the physical pair count.
func (p *Pairs[V]) Len() int { return len(p.Keys) }

// VirtLen returns the virtual pair count (defaulting to physical).
func (p *Pairs[V]) VirtLen() int64 {
	if p.Virt > 0 {
		return p.Virt
	}
	return int64(len(p.Keys))
}

// VirtBytes returns the buffer's virtual size given the per-value byte
// width used by the app's cost accounting.
func (p *Pairs[V]) VirtBytes(valBytes int64) int64 {
	return p.VirtLen() * (4 + valBytes)
}

// Append adds one pair.
func (p *Pairs[V]) Append(k uint32, v V) {
	p.Keys = append(p.Keys, k)
	p.Vals = append(p.Vals, v)
}

// Grow makes room for n more pairs, so the Appends that follow allocate
// nothing. Emitters that know their count at kernel launch call it once.
func (p *Pairs[V]) Grow(n int) {
	p.Keys = slices.Grow(p.Keys, n)
	p.Vals = slices.Grow(p.Vals, n)
}

// AppendPairs adds all pairs from q and folds in its virtual count.
func (p *Pairs[V]) AppendPairs(q *Pairs[V]) {
	pv, qv := p.VirtLen(), q.VirtLen()
	p.Keys = append(p.Keys, q.Keys...)
	p.Vals = append(p.Vals, q.Vals...)
	p.Virt = pv + qv
}

// Reset empties the buffer, keeping capacity.
func (p *Pairs[V]) Reset() {
	p.Keys = p.Keys[:0]
	p.Vals = p.Vals[:0]
	p.Virt = 0
}

// Equal reports whether two buffers hold the same pairs in the same
// order — the byte-identity check output-invariance tests and benchmarks
// apply to job results. Virtual counts are cost-model bookkeeping, not
// identity, and are not compared.
func Equal[V comparable](a, b *Pairs[V]) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the buffer.
func (p *Pairs[V]) Clone() Pairs[V] {
	return Pairs[V]{
		Keys: append([]uint32(nil), p.Keys...),
		Vals: append([]V(nil), p.Vals...),
		Virt: p.Virt,
	}
}

// Bucket splits pairs into n buckets according to rankOf(key), preserving
// relative order within each bucket (a stable scatter, as GPMR's GPU
// partitioner produces so each reducer's pairs are contiguous). Virtual
// counts are apportioned proportionally, with remainders assigned
// low-bucket-first so they always sum to the input's virtual count.
func (p *Pairs[V]) Bucket(n int, rankOf func(key uint32) int) []Pairs[V] {
	if n <= 0 {
		panic("keyval: Bucket with n <= 0")
	}
	// Count, then scatter: rankOf runs once per pair, and the buckets are
	// capacity-limited windows of one exactly sized allocation, so none
	// ever regrows and an append to one cannot reach its neighbour.
	dest := make([]int32, len(p.Keys))
	counts := make([]int, n)
	for i, k := range p.Keys {
		d := rankOf(k)
		if d < 0 || d >= n {
			panic("keyval: partitioner returned rank out of range")
		}
		dest[i] = int32(d)
		counts[d]++
	}
	buckets := make([]Pairs[V], n)
	keys, vals := make([]uint32, len(p.Keys)), make([]V, len(p.Keys))
	off := 0
	for d, c := range counts {
		if c > 0 {
			buckets[d].Keys = keys[off : off : off+c]
			buckets[d].Vals = vals[off : off : off+c]
			off += c
		}
	}
	for i, d := range dest {
		buckets[d].Append(p.Keys[i], p.Vals[i])
	}
	phys := int64(p.Len())
	if phys == 0 {
		return buckets
	}
	virt := p.VirtLen()
	assigned := int64(0)
	for i := range buckets {
		share := virt * int64(buckets[i].Len()) / phys
		buckets[i].Virt = share
		assigned += share
	}
	for i := 0; assigned < virt && i < n; i++ {
		if buckets[i].Len() > 0 {
			buckets[i].Virt++
			assigned++
		}
	}
	return buckets
}
