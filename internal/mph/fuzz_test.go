package mph

import (
	"strings"
	"testing"
)

// FuzzBuildPerfect feeds Build arbitrary word sets and checks the minimal
// perfect hash contract the WO pipeline depends on: every dictionary word
// maps to a distinct slot in [0, len(words)) — no collisions, no lost
// keys — so per-word counts can never merge or vanish before partitioning.
func FuzzBuildPerfect(f *testing.F) {
	f.Add("the quick brown fox")
	f.Add("a b c d e f g h i j k l m n o p")
	f.Add("x")
	f.Add("word word2 word3 verylongwordthatkeepsongoing yy zz")
	f.Fuzz(func(t *testing.T, corpus string) {
		seen := map[string]bool{}
		var words []string
		for _, w := range strings.Fields(corpus) {
			if len(w) > 64 || seen[w] {
				continue // Build's contract: no duplicates
			}
			seen[w] = true
			words = append(words, w)
		}
		if len(words) == 0 {
			return
		}
		table, err := Build(words)
		if err != nil {
			// Construction may legitimately fail only by exhausting
			// displacement seeds, which the iteration cap reports as an
			// error; accepting that is fine, silent corruption is not.
			t.Skipf("build failed: %v", err)
		}
		if table.Len() != len(words) {
			t.Fatalf("table has %d slots for %d words (not minimal)", table.Len(), len(words))
		}
		slots := map[uint32]string{}
		for _, w := range words {
			s := table.Lookup(w)
			if s >= uint32(len(words)) {
				t.Fatalf("word %q hashed to slot %d, beyond %d words", w, s, len(words))
			}
			if prev, dup := slots[s]; dup {
				t.Fatalf("words %q and %q collide at slot %d (not perfect)", prev, w, s)
			}
			slots[s] = w
		}
	})
}
