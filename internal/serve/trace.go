package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/des"
	"repro/internal/sched"
)

// The arrival trace is the service's flight recorder: one JSON line per
// boundary event, written in the deterministic order the engine applied
// them. It records INPUTS only — arrivals and cancellations with their
// virtual times — never decisions or outputs, because every decision
// (admit, shed, quota-reject) is a pure function of the virtual state at
// the event's time. Feeding the trace back through Replay therefore
// reproduces the live run event for event: same admissions, same gangs,
// same outputs, byte for byte. See DESIGN.md, "Online serving".

// TraceVersion is the current trace format version.
const TraceVersion = 1

// Header opens a trace: everything admission depends on besides the
// events themselves, so a trace is self-contained.
type Header struct {
	Version     int    `json:"version"`
	Policy      string `json:"policy"`
	Share       int    `json:"share,omitempty"`
	GPUs        int    `json:"gpus"`
	GPUsPerNode int    `json:"gpusPerNode"`
	MaxQueue    int    `json:"maxQueue"`
	Quota       int    `json:"quota,omitempty"`
	PhysBudget  int    `json:"physBudget"`

	// SLO scheduling switches (sched.Policy); omitted when off so pre-SLO
	// traces are byte-unchanged. Preempt includes grow-back; ReadTrace
	// refuses an older header whose "elastic" key was set without it.
	Reserve bool `json:"reserve,omitempty"`
	Preempt bool `json:"preempt,omitempty"`

	// Shard and Epoch are the fleet header: when this daemon serves as one
	// shard of a gpmrfleet, the router's registration handshake stamps the
	// shard's identity and the ring epoch it joined at, so a directory of
	// shard traces remains a complete, deterministically mergeable record
	// of the whole multi-shard run (gpmrfleet -replay).
	Shard string `json:"shard,omitempty"`
	Epoch int    `json:"epoch,omitempty"`
}

// Arrival is one submission crossing the service boundary, stamped with
// the virtual time the service admitted it for consideration. The
// submission rides along whole: Request's JSON keys are the line's keys.
type Arrival struct {
	Seq int      `json:"seq"`
	At  des.Time `json:"at"` // virtual arrival time, ns
	Request
}

// Cancel is one cancellation request, aimed at a previously recorded
// submission's Seq.
type Cancel struct {
	Seq int      `json:"seq"`
	At  des.Time `json:"at"`
}

// Event is one recorded boundary event; exactly one field is set.
type Event struct {
	Arrive *Arrival `json:"arrive,omitempty"`
	Cancel *Cancel  `json:"cancel,omitempty"`
}

// at returns the event's virtual time.
func (e Event) at() des.Time {
	if e.Arrive != nil {
		return e.Arrive.At
	}
	return e.Cancel.At
}

// Trace is a fully read arrival trace.
type Trace struct {
	Header Header
	Events []Event
}

// policy reconstructs the recorded admission policy.
func (h Header) policy() (sched.Policy, error) {
	k, err := sched.ParsePolicyKind(h.Policy)
	if err != nil {
		return sched.Policy{}, fmt.Errorf("serve: trace has unknown policy %q", h.Policy)
	}
	return sched.Policy{Kind: k, Share: h.Share, Reserve: h.Reserve, Preempt: h.Preempt}, nil
}

// TraceWriter streams a live run's boundary events. Event ordering is the
// engine's application ordering (events are engine-confined); the header
// is written lazily — before the first event, or at Flush — so the fleet
// registration handshake can stamp the shard identity after the server
// has started but before any job arrives. The mutex covers that one
// cross-goroutine seam (SetFleet arrives on an HTTP goroutine).
type TraceWriter struct {
	mu       sync.Mutex
	w        *bufio.Writer
	enc      *json.Encoder
	hdr      Header
	wroteHdr bool
	err      error
}

// NewTraceWriter starts a trace; the header line is emitted before the
// first event (or at Flush, so an event-free trace is still replayable).
func NewTraceWriter(w io.Writer, h Header) *TraceWriter {
	bw := bufio.NewWriter(w)
	return &TraceWriter{w: bw, enc: json.NewEncoder(bw), hdr: h}
}

// SetFleet stamps the fleet header (shard identity, ring epoch at join).
// It fails once the header has been written — fleet identity must be
// settled before the first recorded event.
func (t *TraceWriter) SetFleet(shard string, epoch int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wroteHdr {
		if t.hdr.Shard == shard && t.hdr.Epoch == epoch {
			return nil
		}
		return fmt.Errorf("serve: trace header already written (shard %q epoch %d)", t.hdr.Shard, t.hdr.Epoch)
	}
	t.hdr.Shard, t.hdr.Epoch = shard, epoch
	return nil
}

// write encodes one value, emitting the header first if still pending.
// Callers hold t.mu.
func (t *TraceWriter) write(v any) {
	if !t.wroteHdr {
		t.wroteHdr = true
		if t.err == nil {
			t.err = t.enc.Encode(t.hdr)
		}
	}
	if t.err == nil {
		t.err = t.enc.Encode(v)
	}
}

// Arrive records one submission.
func (t *TraceWriter) Arrive(a Arrival) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.write(Event{Arrive: &a})
}

// Cancel records one cancellation.
func (t *TraceWriter) Cancel(c Cancel) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.write(Event{Cancel: &c})
}

// Flush writes the header if no event has, drains the buffer, and
// returns the first error seen.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wroteHdr {
		t.wroteHdr = true
		if t.err == nil {
			t.err = t.enc.Encode(t.hdr)
		}
	}
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// ReadTrace parses a recorded trace, validating version, event ordering
// (times must be non-decreasing — the engine applied them that way), and
// sequence numbering. A header from before grow-back folded into preempt
// that set "elastic" without "preempt" is refused: replayed today it
// would run without grow-back, and so not reproduce its recording.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var tr Trace
	var hdr struct {
		Header
		Elastic bool `json:"elastic"`
	}
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("serve: reading trace header: %w", err)
	}
	tr.Header = hdr.Header
	if hdr.Elastic && !hdr.Preempt {
		return nil, errors.New(`serve: trace header sets "elastic" without "preempt"; grow-back is part of preempt now, so this trace cannot replay as recorded`)
	}
	if tr.Header.Version != TraceVersion {
		return nil, fmt.Errorf("serve: trace version %d, want %d", tr.Header.Version, TraceVersion)
	}
	var last des.Time
	nextSeq := 0
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("serve: reading trace event %d: %w", len(tr.Events), err)
		}
		switch {
		case ev.Arrive != nil && ev.Cancel != nil:
			return nil, fmt.Errorf("serve: trace event %d is both arrival and cancel", len(tr.Events))
		case ev.Arrive == nil && ev.Cancel == nil:
			return nil, fmt.Errorf("serve: trace event %d is empty", len(tr.Events))
		case ev.Arrive != nil:
			if ev.Arrive.Seq != nextSeq {
				return nil, fmt.Errorf("serve: trace arrival out of sequence: seq %d, want %d", ev.Arrive.Seq, nextSeq)
			}
			if len(ev.Arrive.Params) == 0 {
				ev.Arrive.Params = nil // "params":{} is no params, as TraceWriter writes it
			}
			nextSeq++
		case ev.Cancel != nil:
			if ev.Cancel.Seq < 0 || ev.Cancel.Seq >= nextSeq {
				return nil, fmt.Errorf("serve: trace cancel aims at unknown seq %d", ev.Cancel.Seq)
			}
		}
		if at := ev.at(); at < last {
			return nil, fmt.Errorf("serve: trace time went backwards: %v after %v", at, last)
		} else {
			last = at
		}
		tr.Events = append(tr.Events, ev)
	}
	return &tr, nil
}
