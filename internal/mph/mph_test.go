package mph

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestBuildSmall(t *testing.T) {
	words := []string{"the", "quick", "brown", "fox", "jumps"}
	tab, err := Build(words)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]string)
	for _, w := range words {
		slot := tab.Lookup(w)
		if slot >= uint32(len(words)) {
			t.Errorf("%q -> %d out of range", w, slot)
		}
		if prev, dup := seen[slot]; dup {
			t.Errorf("collision: %q and %q both -> %d", prev, w, slot)
		}
		seen[slot] = w
	}
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("expected error for empty dictionary")
	}
}

func TestBuildSingleWord(t *testing.T) {
	tab, err := Build([]string{"solo"})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Lookup("solo") != 0 {
		t.Errorf("single word -> %d, want 0", tab.Lookup("solo"))
	}
}

func TestBuildDuplicateFails(t *testing.T) {
	if _, err := Build([]string{"dup", "dup"}); err == nil {
		t.Error("expected error for duplicate words")
	}
}

// TestBuildNamesRepeatedWord: a repeated word is reported by name, before
// any seed search, among words that would otherwise build.
func TestBuildNamesRepeatedWord(t *testing.T) {
	words := workload.Dictionary(1, 1000)
	words = append(words, words[617])
	_, err := Build(words)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q appears more than once", words[617])) {
		t.Errorf("Build with %q twice: err = %v, want it named as repeated", words[617], err)
	}
}

func TestMinimalPerfectOnPaperDictionary(t *testing.T) {
	// The paper's WO uses a 43k-word dictionary; the hash must be a
	// bijection onto [0, 43000).
	if testing.Short() {
		t.Skip("full dictionary build in -short mode")
	}
	words := workload.Dictionary(42, workload.DictionarySize)
	tab, err := Build(words)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != len(words) {
		t.Fatalf("table size %d, want %d", tab.Len(), len(words))
	}
	hit := make([]bool, len(words))
	for _, w := range words {
		slot := tab.Lookup(w)
		if slot >= uint32(len(words)) {
			t.Fatalf("%q -> %d out of range", w, slot)
		}
		if hit[slot] {
			t.Fatalf("slot %d assigned twice", slot)
		}
		hit[slot] = true
	}
}

func TestLookupDeterministic(t *testing.T) {
	words := workload.Dictionary(1, 100)
	tab, err := Build(words)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		if tab.Lookup(w) != tab.Lookup(w) {
			t.Fatalf("nondeterministic lookup for %q", w)
		}
	}
}

// TestBuildAllocsIndependentOfAttempts bounds Build's allocation count by
// its bookkeeping slices alone. A 2 048-word build makes on the order of
// 10^5 failed displacement attempts; a buffer allocated per attempt (or per
// bucket) blows the ceiling by orders of magnitude.
func TestBuildAllocsIndependentOfAttempts(t *testing.T) {
	words := workload.Dictionary(1, 2048)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Build(words); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("Build(2048 words) made %.0f allocations, want at most 16", allocs)
	}
}

func BenchmarkBuild1k(b *testing.B) {
	for _, n := range []int{1000, workload.DictionarySize} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			words := workload.Dictionary(9, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(words); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLookup(b *testing.B) {
	words := workload.Dictionary(9, 1000)
	tab, err := Build(words)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(words[i%len(words)])
	}
}
