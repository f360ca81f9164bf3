package keyval

import (
	"testing"
	"testing/quick"
)

func TestAppendAndLen(t *testing.T) {
	var p Pairs[int]
	p.Append(3, 30)
	p.Append(1, 10)
	if p.Len() != 2 || p.Keys[1] != 1 || p.Vals[0] != 30 {
		t.Errorf("pairs %+v", p)
	}
}

func TestVirtLenDefaultsToPhysical(t *testing.T) {
	var p Pairs[int]
	p.Append(1, 1)
	p.Append(2, 2)
	if p.VirtLen() != 2 {
		t.Errorf("VirtLen=%d", p.VirtLen())
	}
	p.Virt = 100
	if p.VirtLen() != 100 {
		t.Errorf("VirtLen=%d after override", p.VirtLen())
	}
	if p.VirtBytes(4) != 800 {
		t.Errorf("VirtBytes=%d", p.VirtBytes(4))
	}
}

func TestAppendPairsFoldsVirt(t *testing.T) {
	a := Pairs[int]{Keys: []uint32{1}, Vals: []int{1}, Virt: 10}
	b := Pairs[int]{Keys: []uint32{2, 3}, Vals: []int{2, 3}, Virt: 20}
	a.AppendPairs(&b)
	if a.Len() != 3 || a.VirtLen() != 30 {
		t.Errorf("len=%d virt=%d", a.Len(), a.VirtLen())
	}
}

func TestReset(t *testing.T) {
	p := Pairs[int]{Keys: []uint32{1}, Vals: []int{1}, Virt: 5}
	p.Reset()
	if p.Len() != 0 || p.VirtLen() != 0 {
		t.Errorf("after reset: %+v", p)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Pairs[int]{Keys: []uint32{1, 2}, Vals: []int{10, 20}, Virt: 7}
	q := p.Clone()
	q.Keys[0] = 99
	if p.Keys[0] != 1 {
		t.Error("clone aliases original")
	}
	if q.Virt != 7 {
		t.Error("clone lost virt")
	}
}

func TestBucketStableAndComplete(t *testing.T) {
	var p Pairs[int]
	for i := 0; i < 10; i++ {
		p.Append(uint32(i), i*100)
	}
	buckets := p.Bucket(3, func(k uint32) int { return int(k % 3) })
	if len(buckets) != 3 {
		t.Fatalf("%d buckets", len(buckets))
	}
	total := 0
	for bi, b := range buckets {
		total += b.Len()
		var prev uint32
		for i, k := range b.Keys {
			if int(k%3) != bi {
				t.Errorf("key %d in bucket %d", k, bi)
			}
			if i > 0 && k < prev {
				t.Errorf("bucket %d not order-preserving", bi)
			}
			if b.Vals[i] != int(k)*100 {
				t.Errorf("value misaligned: key %d val %d", k, b.Vals[i])
			}
			prev = k
		}
	}
	if total != p.Len() {
		t.Errorf("buckets hold %d pairs, want %d", total, p.Len())
	}
}

// TestBucketsDoNotAlias: the buckets share one allocation, so each must be
// a full window of it — an append to one bucket may not land in the next.
func TestBucketsDoNotAlias(t *testing.T) {
	var p Pairs[int]
	for i := 0; i < 9; i++ {
		p.Append(uint32(i), i)
	}
	buckets := p.Bucket(3, func(k uint32) int { return int(k % 3) })
	want := buckets[1].Clone()
	buckets[0].Append(99, 99)
	buckets[0].AppendPairs(&buckets[2])
	if !Equal(&buckets[1], &want) {
		t.Errorf("append to bucket 0 changed bucket 1: %v %v", buckets[1].Keys, buckets[1].Vals)
	}
}

func TestGrowReservesWithoutChangingContents(t *testing.T) {
	p := Pairs[int]{Keys: []uint32{1, 2}, Vals: []int{10, 20}, Virt: 7}
	want := p.Clone()
	p.Grow(100)
	if !Equal(&p, &want) || p.Virt != 7 {
		t.Fatalf("Grow changed the buffer: %+v", p)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		q := p
		for i := 0; i < 100; i++ {
			q.Append(uint32(i), i)
		}
	}); allocs != 0 {
		t.Errorf("100 Appends after Grow(100) allocated %.0f times", allocs)
	}
}

func TestBucketOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := Pairs[int]{Keys: []uint32{1}, Vals: []int{1}}
	p.Bucket(2, func(uint32) int { return 5 })
}

func TestPropertyBucketVirtConserved(t *testing.T) {
	f := func(keys []uint32, virtRaw uint16, nRaw uint8) bool {
		n := int(nRaw%7) + 1
		var p Pairs[uint32]
		for _, k := range keys {
			p.Append(k, k)
		}
		virt := int64(virtRaw)
		if virt < int64(p.Len()) {
			virt = int64(p.Len()) // virtual count never below physical
		}
		if p.Len() > 0 {
			p.Virt = virt
		}
		buckets := p.Bucket(n, func(k uint32) int { return int(k) % n })
		var gotVirt int64
		gotPhys := 0
		for _, b := range buckets {
			gotVirt += b.VirtLen()
			gotPhys += b.Len()
		}
		return gotPhys == p.Len() && gotVirt == p.VirtLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
