// Package obs is the simulator's virtual-time flight recorder: a
// structured event log threaded through every layer of the stack — DES
// engine internals, GPU kernel and copy spans, pipeline phase spans,
// scheduler decisions, and serve-level job lifecycles — with exports to
// canonical JSONL and Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) and a per-job latency breakdown (Explain).
//
// Design constraints, in order:
//
//  1. Zero perturbation. Recording only reads the current virtual time
//     and appends to memory; it never touches engine state, so every
//     simulated output is byte-identical with recording on or off. A nil
//     *Recorder is the disabled state and every method is nil-safe, so
//     call sites need no conditionals.
//
//  2. Determinism. Events are stamped (time, stream, per-stream sequence)
//     at emission and exported in that order. A stream is one logical
//     timeline (a GPU engine, a job's rank, a scheduler decision track)
//     confined to a single DES engine, so its emission order is the
//     engine's serialized execution order — which the sharded-engine
//     invariant (see des.ShardSet) makes independent of the shard count.
//     The canonical export therefore produces byte-identical files at any
//     shard count >= 1 and under any kernel-execution backend.
//
//  3. Separation of the engine's own bookkeeping. Events in CatEngine
//     (shard rounds, dispatch counters, backend attribution) legitimately
//     vary with the host configuration; they are recorded for inspection
//     but excluded from the canonical export and the Chrome timeline.
//
// The package deliberately imports only the standard library: times are
// int64 nanoseconds (des.Time converts via a plain int64 cast), which
// lets the des package itself carry a recorder without an import cycle.
package obs

import (
	"sort"
	"strconv"
	"sync"
)

// Cat classifies an event for export filtering.
type Cat uint8

const (
	// CatSim marks simulation-level events: part of the canonical export
	// and byte-identical across shard counts and kernel backends.
	CatSim Cat = iota
	// CatEngine marks engine internals (shard rounds, dispatch stats,
	// backend attribution). Recorded, but excluded from the canonical
	// export because they legitimately depend on the host configuration.
	CatEngine
)

// Attr is one ordered key/value attribute on an event.
type Attr struct {
	K, V string
}

// A builds a string attribute.
func A(k, v string) Attr { return Attr{K: k, V: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{K: k, V: strconv.FormatInt(v, 10)} }

// Float builds a float attribute with the shortest exact representation.
func Float(k string, v float64) Attr { return Attr{K: k, V: strconv.FormatFloat(v, 'g', -1, 64)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{K: k, V: strconv.FormatBool(v)} }

// Event is one recorded occurrence: an instant (Dur == 0) or a span.
// Times are virtual nanoseconds.
type Event struct {
	T      int64  // start time
	Dur    int64  // span duration; 0 = instant
	Cat    Cat    // export category
	Stream string // logical timeline (one engine-confined entity)
	Kind   string // event kind, e.g. "kernel", "phase.map", "steal"
	Attrs  []Attr // ordered attributes
	Seq    uint64 // per-stream emission index, stamped by the Recorder
}

// End returns the event's end time (T for instants).
func (e *Event) End() int64 { return e.T + e.Dur }

// Attr returns the value of the named attribute, or "".
func (e *Event) Attr(k string) string {
	for _, a := range e.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// Recorder collects events from every layer of one simulation. The
// zero-cost disabled state is a nil *Recorder: all methods are nil-safe
// no-ops. The mutex serializes emissions from concurrently running engine
// shards; determinism comes from the per-stream sequence numbers, not
// from global arrival order (which shard interleaving scrambles).
type Recorder struct {
	mu     sync.Mutex
	prefix string
	events []Event
	seqs   map[string]uint64
}

// New returns an empty, enabled recorder.
func New() *Recorder {
	return &Recorder{seqs: make(map[string]uint64)}
}

// Enabled reports whether the recorder records (i.e. is non-nil). Call
// sites use it to skip attribute construction when disabled.
func (r *Recorder) Enabled() bool { return r != nil }

// SetPrefix prepends p to every subsequently emitted stream key. Drivers
// that run several independent simulations into one recorder (e.g. the
// multijob experiment's per-policy runs) use it to keep their timelines
// apart. Must not be called while a simulation is emitting.
func (r *Recorder) SetPrefix(p string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.prefix = p
	r.mu.Unlock()
}

// Emit records an instant event at virtual time t (nanoseconds).
func (r *Recorder) Emit(t int64, cat Cat, stream, kind string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.record(Event{T: t, Cat: cat, Stream: stream, Kind: kind, Attrs: attrs})
}

// Span records a span from start to end (virtual nanoseconds). A span
// whose end precedes its start is clamped to an instant at start.
func (r *Recorder) Span(start, end int64, cat Cat, stream, kind string, attrs ...Attr) {
	if r == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	r.record(Event{T: start, Dur: dur, Cat: cat, Stream: stream, Kind: kind, Attrs: attrs})
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	e.Stream = r.prefix + e.Stream
	e.Seq = r.seqs[e.Stream]
	r.seqs[e.Stream] = e.Seq + 1
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Len returns the number of recorded events (all categories).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of every recorded event in canonical order:
// sorted by (time, stream, per-stream sequence). The sort key is a pure
// function of the simulation, so the order — like the events themselves —
// is independent of shard count and backend.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sortCanonical(out)
	return out
}

// Canonical returns the canonical event set: CatSim only, canonical
// order. This is what the JSONL and Chrome exports serialize.
func (r *Recorder) Canonical() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Event
	for _, e := range r.events {
		if e.Cat == CatSim {
			out = append(out, e)
		}
	}
	r.mu.Unlock()
	sortCanonical(out)
	return out
}

// Sort orders an event slice canonically, by (time, stream, per-stream
// seq) — the same order Events and Canonical return. Mergers that combine
// events from several recorders (e.g. the fleet timeline stitcher) use it
// to restore canonical order after concatenation.
func Sort(evs []Event) { sortCanonical(evs) }

// sortCanonical orders events by (time, stream, per-stream seq). Distinct
// streams never share a (stream, seq) pair, so the order is total.
func sortCanonical(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Seq < b.Seq
	})
}
