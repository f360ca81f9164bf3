package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// The exports are hand-serialized with a fixed field order so the output
// is byte-deterministic: a canonical event set always produces an
// identical file, which is what the cross-shard/cross-backend trace
// differential tests diff. String values go through encoding/json so
// arbitrary tenant/job names stay valid JSON.

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshal of a string cannot fail.
		panic(err)
	}
	return string(b)
}

// writeEventJSON writes one event as a single-line JSON object with a
// fixed field order: t, dur, stream, kind, attrs (attrs omitted when
// empty, preserving emission order inside the object).
func writeEventJSON(w *bufio.Writer, e *Event) {
	w.WriteString(`{"t":`)
	w.WriteString(strconv.FormatInt(e.T, 10))
	w.WriteString(`,"dur":`)
	w.WriteString(strconv.FormatInt(e.Dur, 10))
	w.WriteString(`,"stream":`)
	w.WriteString(jstr(e.Stream))
	w.WriteString(`,"kind":`)
	w.WriteString(jstr(e.Kind))
	if len(e.Attrs) > 0 {
		w.WriteString(`,"attrs":{`)
		for i, a := range e.Attrs {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(jstr(a.K))
			w.WriteByte(':')
			w.WriteString(jstr(a.V))
		}
		w.WriteByte('}')
	}
	w.WriteByte('}')
}

// WriteJSONL writes the canonical event set as JSON Lines: one event per
// line, canonical order, fixed field order. This is the schema of record
// for trace differential tests.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, r.Canonical())
}

// WriteJSONL serializes an event slice as JSON Lines.
func WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	for i := range evs {
		writeEventJSON(bw, &evs[i])
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteChrome writes the canonical event set in Chrome trace-event JSON
// (the "JSON object format"), loadable in Perfetto and chrome://tracing.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return WriteChrome(w, r.Canonical(), nil)
}

// WriteChromeFiltered writes the canonical events whose stream keep
// accepts — e.g. one job's timelines for a per-job HTTP endpoint.
func (r *Recorder) WriteChromeFiltered(w io.Writer, keep func(stream string) bool) error {
	return WriteChrome(w, r.Canonical(), keep)
}

// Finish is the epilogue of a recording command-line run (gpmrbench,
// gpmrsim). It prints to w the phase breakdown of every recorded job
// explain selects — a job name, bare or prefixed, or "all"; "" selects
// none — and then, when tracePath is set, writes the recording there as
// Chrome trace-event JSON.
func (r *Recorder) Finish(w io.Writer, explain, tracePath string) error {
	if explain != "" {
		evs := r.Canonical()
		for _, k := range Jobs(evs) {
			if explain == "all" || explain == k.String() || explain == k.Name {
				fmt.Fprint(w, Explain(evs, k).String())
			}
		}
	}
	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := r.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// usec renders a nanosecond time as trace-event microseconds with fixed
// (3-digit) precision, keeping full nanosecond resolution byte-stably.
func usec(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}

// WriteChrome serializes events as Chrome trace-event JSON. Streams map
// to thread lanes (tid), named through thread_name metadata records; spans
// become complete ("X") events and instants thread-scoped ("i") events.
// keep, when non-nil, filters by stream. Output is byte-deterministic.
func WriteChrome(w io.Writer, evs []Event, keep func(stream string) bool) error {
	return writeChrome(w, evs, keep, nil)
}

// WriteChromeGrouped serializes events as Chrome trace-event JSON with
// streams grouped into process lanes: groupOf maps each stream to a group
// name, each group becomes one pid (groups sorted by name), and the
// streams inside a group become its thread lanes. The fleet timeline
// stitcher uses it to render each shard — and the router — as its own
// lane group in Perfetto. A nil groupOf collapses to WriteChrome's single
// "gpmr" group.
func WriteChromeGrouped(w io.Writer, evs []Event, groupOf func(stream string) string) error {
	return writeChrome(w, evs, nil, groupOf)
}

func writeChrome(w io.Writer, evs []Event, keep func(stream string) bool, groupOf func(stream string) string) error {
	if keep != nil {
		kept := make([]Event, 0, len(evs))
		for _, e := range evs {
			if keep(e.Stream) {
				kept = append(kept, e)
			}
		}
		evs = kept
	}
	single := groupOf == nil
	if single {
		groupOf = func(string) string { return "gpmr" }
	}
	// Stable lane assignment: groups sorted by name become pids, the
	// streams inside each group — sorted by name — its tids.
	perGroup := make(map[string][]string)
	var groups []string
	seen := make(map[string]bool)
	for i := range evs {
		s := evs[i].Stream
		if seen[s] {
			continue
		}
		seen[s] = true
		g := groupOf(s)
		if _, ok := perGroup[g]; !ok {
			groups = append(groups, g)
		}
		perGroup[g] = append(perGroup[g], s)
	}
	if single && len(groups) == 0 {
		// The single-group format always carries its process_name record,
		// even for an empty recording.
		groups = append(groups, "gpmr")
	}
	sort.Strings(groups)

	type lane struct{ pid, tid int }
	lanes := make(map[string]lane)
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	for gi, g := range groups {
		pid := gi + 1
		if gi > 0 {
			bw.WriteString(",\n")
		}
		bw.WriteString(`{"ph":"M","pid":`)
		bw.WriteString(strconv.Itoa(pid))
		bw.WriteString(`,"tid":0,"name":"process_name","args":{"name":`)
		bw.WriteString(jstr(g))
		bw.WriteString(`}}`)
		streams := perGroup[g]
		sort.Strings(streams)
		for ti, s := range streams {
			lanes[s] = lane{pid: pid, tid: ti + 1}
			bw.WriteString(",\n")
			bw.WriteString(`{"ph":"M","pid":`)
			bw.WriteString(strconv.Itoa(pid))
			bw.WriteString(`,"tid":`)
			bw.WriteString(strconv.Itoa(ti + 1))
			bw.WriteString(`,"name":"thread_name","args":{"name":`)
			bw.WriteString(jstr(s))
			bw.WriteString(`}}`)
		}
	}
	for i := range evs {
		e := &evs[i]
		l := lanes[e.Stream]
		bw.WriteString(",\n")
		if e.Dur > 0 {
			bw.WriteString(`{"ph":"X","pid":`)
			bw.WriteString(strconv.Itoa(l.pid))
			bw.WriteString(`,"tid":`)
			bw.WriteString(strconv.Itoa(l.tid))
			bw.WriteString(`,"ts":`)
			bw.WriteString(usec(e.T))
			bw.WriteString(`,"dur":`)
			bw.WriteString(usec(e.Dur))
		} else {
			bw.WriteString(`{"ph":"i","pid":`)
			bw.WriteString(strconv.Itoa(l.pid))
			bw.WriteString(`,"tid":`)
			bw.WriteString(strconv.Itoa(l.tid))
			bw.WriteString(`,"ts":`)
			bw.WriteString(usec(e.T))
			bw.WriteString(`,"s":"t"`)
		}
		bw.WriteString(`,"cat":"sim","name":`)
		bw.WriteString(jstr(e.Kind))
		bw.WriteString(`,"args":{`)
		for j, a := range e.Attrs {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(jstr(a.K))
			bw.WriteByte(':')
			bw.WriteString(jstr(a.V))
		}
		bw.WriteString(`}}`)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// ReadJSONL parses a canonical JSON Lines export back into an event
// slice, inverting WriteJSONL: field order, attribute order, and the
// per-stream sequence numbers (reassigned in file order, which within a
// stream is emission order) all round-trip, so writing the result back
// out reproduces the input byte for byte. Events read this way are
// CatSim — the canonical export never contains engine events.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	str := func(field string) (string, error) {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("obs: reading JSONL field %q: %w", field, err)
		}
		s, ok := tok.(string)
		if !ok {
			return "", fmt.Errorf("obs: reading JSONL field %q: got %v, want string", field, tok)
		}
		return s, nil
	}
	num := func(field string) (int64, error) {
		tok, err := dec.Token()
		if err != nil {
			return 0, fmt.Errorf("obs: reading JSONL field %q: %w", field, err)
		}
		n, ok := tok.(json.Number)
		if !ok {
			return 0, fmt.Errorf("obs: reading JSONL field %q: got %v, want number", field, tok)
		}
		v, err := n.Int64()
		if err != nil {
			return 0, fmt.Errorf("obs: reading JSONL field %q: %w", field, err)
		}
		return v, nil
	}
	delim := func(want rune) error {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("obs: reading JSONL: %w", err)
		}
		if d, ok := tok.(json.Delim); !ok || rune(d) != want {
			return fmt.Errorf("obs: reading JSONL: got %v, want %q", tok, want)
		}
		return nil
	}

	seqs := make(map[string]uint64)
	var evs []Event
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("obs: reading JSONL: %w", err)
		}
		if d, ok := tok.(json.Delim); !ok || d != '{' {
			return nil, fmt.Errorf("obs: reading JSONL: got %v, want object", tok)
		}
		var e Event
		for dec.More() {
			key, err := str("key")
			if err != nil {
				return nil, err
			}
			switch key {
			case "t":
				if e.T, err = num(key); err != nil {
					return nil, err
				}
			case "dur":
				if e.Dur, err = num(key); err != nil {
					return nil, err
				}
			case "stream":
				if e.Stream, err = str(key); err != nil {
					return nil, err
				}
			case "kind":
				if e.Kind, err = str(key); err != nil {
					return nil, err
				}
			case "attrs":
				// Decoded token by token, not into a map: attribute
				// order is part of the canonical format.
				if err := delim('{'); err != nil {
					return nil, err
				}
				for dec.More() {
					k, err := str("attr key")
					if err != nil {
						return nil, err
					}
					v, err := str(k)
					if err != nil {
						return nil, err
					}
					e.Attrs = append(e.Attrs, Attr{K: k, V: v})
				}
				if err := delim('}'); err != nil {
					return nil, err
				}
			default:
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					return nil, fmt.Errorf("obs: reading JSONL field %q: %w", key, err)
				}
			}
		}
		if err := delim('}'); err != nil {
			return nil, err
		}
		e.Cat = CatSim
		e.Seq = seqs[e.Stream]
		seqs[e.Stream] = e.Seq + 1
		evs = append(evs, e)
	}
}
