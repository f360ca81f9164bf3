package mph

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/workload"
)

// tableDigest is FNV-64a over the table's displacement seeds and then the
// slot of every word in dictionary order, each as a little-endian uint32.
func tableDigest(t *Table, words []string) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, s := range t.seeds {
		binary.LittleEndian.PutUint32(buf[:], uint32(s))
		h.Write(buf[:])
	}
	for _, w := range words {
		binary.LittleEndian.PutUint32(buf[:], t.Lookup(w))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestBuildTablePinned pins the table itself, not just its perfection: the
// seeds decide every word's slot, the slots are WO's keys, and the keys
// decide every WO digest and golden. The digests were generated by the
// construction as it stood before PR 23 rewrote its bookkeeping; a change
// to bucket order, seed search order or hash shows up here first.
func TestBuildTablePinned(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n    int
		want uint64
	}{
		{1, 1, 0x89cd31291d2aefa4},
		{1, 2, 0xff1ed9421877e875},
		{1, 5, 0x0827734fc91c023c},
		{1, 2048, 0x2929986f5078f2df},
		{7, 2048, 0x37bdccb8bf9527e2},
		{1, workload.DictionarySize, 0xec55d18c1ab1a6d8},
	} {
		words := workload.Dictionary(tc.seed, tc.n)
		tab, err := Build(words)
		if err != nil {
			t.Fatalf("Dictionary(%d, %d): %v", tc.seed, tc.n, err)
		}
		if got := tableDigest(tab, words); got != tc.want {
			t.Errorf("Dictionary(%d, %d): table digest %#016x, want %#016x", tc.seed, tc.n, got, tc.want)
		}
	}
}
