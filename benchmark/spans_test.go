package main

import (
	"math"
	"testing"
)

func TestSelfTimeIsDurationMinusChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 3},
		{ID: 2, Parent: 0, Start: 2, End: 5},   // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 8, End: 12},  // sticks out: only 8..10 counts
		{ID: 4, Parent: 2, Start: 2, End: 2.5}, // a grandchild covers its own parent only
		{ID: 5, Parent: -1, Start: 20, End: 21},
	}
	selfTimes(spans)
	want := []float64{10 - (4 + 2), 2, 3 - 0.5, 4, 0.5, 1}
	for i, w := range want {
		if math.Abs(spans[i].Self-w) > 1e-12 {
			t.Errorf("span %d: self %g, want %g", i, spans[i].Self, w)
		}
	}
}

func TestTracerRecordsParentsAndOps(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin(-1, "workload")
	child := tr.begin(root, "phase")
	tr.end(child, 7)
	tr.end(root, 1)
	spans := tr.finish()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Ops != 7 || spans[0].Workload != "w" {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v is not inside its parent %+v", spans[1], spans[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, "anything")
	tr.end(id, 1)
	if id != -1 || tr.count() != 0 {
		t.Errorf("nil tracer: id %d, count %d", id, tr.count())
	}
}
