package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Harness spans: the traced run records one per workload, phase, child
// process, HTTP request and probe, from the benchmark's own files around
// the calls into each layer. They stay in memory until the run ends.

// span is one recorded interval. Start and End are seconds since the
// tracer was created; Parent is another span's ID, or -1 for a root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Ops      int     `json:"ops"`
	Self     float64 `json:"self_s"`
}

// tracer collects spans. A nil tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now, End: now})
	return id
}

// end closes span id with the number of operations it covered.
func (t *tracer) end(id, ops int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Ops = ops
	t.mu.Unlock()
}

// add records a span measured elsewhere (a probe timed in the child
// process), already placed on this tracer's clock.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Workload = len(t.spans), t.workload
	t.spans = append(t.spans, s)
}

// spanStart returns when span id began, on the tracer's clock.
func (t *tracer) spanStart(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// count reports how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// finish computes self times and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval its direct children cover (overlapping children count once,
// and cover outside the parent's interval does not count).
func selfTimes(spans []span) {
	type iv struct{ lo, hi float64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := 0.0, s.Start
		for _, k := range ivs {
			lo, hi := k.lo, k.hi
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// writeSpans writes the spans as JSON to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
