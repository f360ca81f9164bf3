package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The load generator: one process, at most nproc (capped at 4) keep-alive
// connections, a closed-loop driver and an open-loop driver that times
// every operation from its due time.

// connections is the number of load-generator connections: the host's
// CPU count, at least 2 (one to submit, one to poll), at most 4.
func connections() int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	if n > 4 {
		n = 4
	}
	return n
}

// The pause between two polls of one job: short against the done
// latencies reported, long enough not to drown the daemon in GETs.
// gpmrd finishes a job within milliseconds; behind gpmrfleet done shows
// only at the router's next probe (500 ms apart), so 2% of that is
// resolution enough.
const (
	gpmrdPollGap = 250 * time.Microsecond
	fleetPollGap = 10 * time.Millisecond
)

// loadgen issues requests over a bounded keep-alive pool and, when
// traced, records one span per request.
type loadgen struct {
	hc      *http.Client
	tr      *tracer
	parent  int           // span under which request spans are recorded
	pollGap time.Duration // least time between two polls of one job
}

func newLoadgen(conns int, pollGap time.Duration, tr *tracer) *loadgen {
	return &loadgen{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			Timeout:   60 * time.Second,
		},
		tr: tr, parent: -1, pollGap: pollGap,
	}
}

func (l *loadgen) close() { l.hc.CloseIdleConnections() }

// phase opens a span under which the requests that follow are recorded;
// the returned function closes it with the phase's operation count.
// Phases run one at a time, so the parent needs no lock.
func (l *loadgen) phase(name string) (end func(ops int)) {
	sp, prev := l.tr.begin(l.parent, name), l.parent
	l.parent = sp
	return func(ops int) {
		l.tr.end(sp, ops)
		l.parent = prev
	}
}

// do sends one request and reads the whole response. It returns the
// status, the body, and when the headers and the last body byte arrived.
func (l *loadgen) do(name, method, url string, body []byte) (int, []byte, time.Time, time.Time, error) {
	sp := l.tr.begin(l.parent, name)
	defer l.tr.end(sp, 1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, time.Time{}, time.Time{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return 0, nil, time.Time{}, time.Time{}, err
	}
	tHead := time.Now()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, tHead, time.Now(), err
}

// jobJSON is the part of a job record the harness reads. gpmrd encodes
// the digest as a number guarded by hasDigest, gpmrfleet as hex text.
type jobJSON struct {
	ID        int             `json:"id"`
	State     string          `json:"state"`
	Tag       string          `json:"tag"`
	Digest    json.RawMessage `json:"digest"`
	HasDigest bool            `json:"hasDigest"`
}

// digestHex normalises either digest encoding to 16 hex digits, or ""
// when the record carries none.
func (j *jobJSON) digestHex() string {
	if len(j.Digest) == 0 {
		return ""
	}
	if j.Digest[0] == '"' {
		var s string
		if json.Unmarshal(j.Digest, &s) != nil {
			return ""
		}
		return s
	}
	if !j.HasDigest {
		return ""
	}
	n, err := strconv.ParseUint(string(j.Digest), 10, 64)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%016x", n)
}

func terminal(state string) bool {
	switch state {
	case "done", "failed", "cancelled", "rejected":
		return true
	}
	return false
}

// jobOp is one submission and what became of it.
type jobOp struct {
	idx  int // job index: fixes the body for a given seed
	body []byte

	due      time.Time // closed loop: when the client was ready to send
	sent     time.Time
	accepted time.Time // POST answered
	done     time.Time // first poll that saw a terminal state

	nextPoll time.Time // the poller leaves the job alone until then

	id     int // id at the front door
	tag    string
	state  string
	digest string
	err    string // why the operation failed, "" if it did not
}

func (op *jobOp) fail(format string, args ...any) {
	if op.err == "" {
		op.err = fmt.Sprintf(format, args...)
	}
}

// post submits the job and records the accept time.
func (l *loadgen) post(base string, op *jobOp) {
	op.sent = time.Now()
	code, data, _, tDone, err := l.do("POST /jobs", http.MethodPost, base+"/jobs", op.body)
	op.accepted = tDone
	if err != nil {
		op.fail("POST /jobs: %v", err)
		return
	}
	if code != http.StatusAccepted {
		op.fail("POST /jobs: status %d: %.120s", code, data)
		return
	}
	var j jobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		op.fail("POST /jobs: bad body: %v", err)
		return
	}
	op.id, op.tag, op.state = j.ID, j.Tag, j.State
}

// poll reads the job record once; it reports whether the job is settled
// (terminal, or failed to read).
func (l *loadgen) poll(base string, op *jobOp) bool {
	code, data, _, tDone, err := l.do("GET /jobs/{id}", http.MethodGet, base+"/jobs/"+strconv.Itoa(op.id), nil)
	if err != nil {
		op.fail("GET /jobs/%d: %v", op.id, err)
		return true
	}
	if code != http.StatusOK {
		op.fail("GET /jobs/%d: status %d", op.id, code)
		return true
	}
	var j jobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		op.fail("GET /jobs/%d: bad body: %v", op.id, err)
		return true
	}
	if !terminal(j.State) {
		return false
	}
	op.done, op.state, op.digest = tDone, j.State, j.digestHex()
	if j.State != "done" {
		op.fail("job %d ended %s", op.id, j.State)
	} else if op.digest == "" {
		op.fail("job %d done without a digest", op.id)
	}
	return true
}

// pollUntilDone polls one job to a terminal state or the deadline.
func (l *loadgen) pollUntilDone(base string, op *jobOp, deadline time.Time) {
	for !l.poll(base, op) {
		if time.Now().After(deadline) {
			op.fail("job %d not terminal by the deadline", op.id)
			return
		}
		time.Sleep(l.pollGap)
	}
}

// poller settles the jobs it receives over in, on one connection, until
// in is closed and nothing is pending. Each job is polled at most once
// per pollGap. With inOrder it polls only the oldest pending job: enough
// to learn when a closed-loop phase has ended, at one GET per job.
func (l *loadgen) poller(base string, in <-chan *jobOp, deadline time.Time, inOrder bool) {
	var pending []*jobOp
	for in != nil || len(pending) > 0 {
		if len(pending) == 0 { // idle: block for the next job
			op, ok := <-in
			if !ok {
				return
			}
			pending = append(pending, op)
		}
		for more := true; more && in != nil; { // take what else has arrived
			select {
			case op, ok := <-in:
				if ok {
					pending = append(pending, op)
				} else {
					in = nil
				}
			default:
				more = false
			}
		}
		late := time.Now().After(deadline)
		keep := pending[:0]
		for _, op := range pending {
			switch {
			case late:
				op.fail("job %d not terminal by the deadline", op.id)
			case inOrder && len(keep) > 0, time.Now().Before(op.nextPoll):
				keep = append(keep, op)
			case l.poll(base, op):
			default:
				op.nextPoll = time.Now().Add(l.pollGap)
				keep = append(keep, op)
			}
		}
		pending = keep
		if len(pending) > 0 {
			wake := pending[0].nextPoll
			if !inOrder {
				for _, op := range pending[1:] {
					if op.nextPoll.Before(wake) {
						wake = op.nextPoll
					}
				}
			}
			time.Sleep(time.Until(wake))
		}
	}
}

// phaseResult is one timed phase of a serving workload.
type phaseResult struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	LateP95Ms float64 `json:"late_ms_p95"` // open loop only: the generator's own lateness
}

// closedLoop runs ops with `clients` submitters, each sending its next
// job only after the previous one is settled. With waitDone a client
// polls its own job to a terminal state before it goes on. Without, it
// goes on once the POST is answered, and the caller settles the jobs
// afterwards — the only workable shape behind gpmrfleet, which learns
// that a job is done at its next probe.
//
// The clock stops when the last client is through. Without waitDone that
// is the last POST answered: gpmrd answers a POST only once its engine
// has finished the jobs before it, so the rate is still the rate of
// completed work, and it is not rounded to the router's half-second probe.
func (l *loadgen) closedLoop(name, base string, ops []*jobOp, clients int, waitDone bool) phaseResult {
	end := l.phase(name)

	deadline := time.Now().Add(phaseTimeout)
	next := make(chan *jobOp)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range next {
				op.due = time.Now()
				l.post(base, op)
				if waitDone && op.err == "" {
					l.pollUntilDone(base, op, deadline)
				}
			}
		}()
	}
	for _, op := range ops {
		next <- op
	}
	close(next)
	wg.Wait()
	wall := time.Since(start).Seconds()
	end(len(ops))
	return phaseResult{Name: name, Attempted: len(ops), Failed: countFailed(ops), WallS: wall}
}

// settle polls, in order, every accepted job that has not been seen in a
// terminal state yet, until each has.
func (l *loadgen) settle(base string, ops []*jobOp) {
	end := l.phase("settle")
	unsettled := make(chan *jobOp, len(ops)) // sized to the sends below
	n := 0
	for _, op := range ops {
		if op.err == "" && op.done.IsZero() {
			unsettled <- op
			n++
		}
	}
	close(unsettled)
	l.poller(base, unsettled, time.Now().Add(phaseTimeout), true)
	end(n)
}

// openLoop sends ops on the schedule (offsets from the phase start) over
// one submit connection regardless of completions, and settles them over
// one poll connection. Every latency is timed from the due time, and the
// generator's own lateness is reported.
func (l *loadgen) openLoop(name, base string, ops []*jobOp, schedule []time.Duration) phaseResult {
	end := l.phase(name)

	pollc := make(chan *jobOp, len(ops)) // sized to the sends: the submitter never waits on the poller
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	start := time.Now()
	deadline := start.Add(schedule[len(schedule)-1] + phaseTimeout)
	go func() {
		defer pollWG.Done()
		l.poller(base, pollc, deadline, false)
	}()
	// Lateness is the generator's own: how far past the due time it sent
	// when it was free to send on time. An arrival that found the submit
	// connection still busy with the previous POST waited on the system
	// under test, and that wait is already in its latencies.
	var late []float64
	for i, op := range ops {
		op.due = start.Add(schedule[i])
		sleepUntil(op.due)
		l.post(base, op)
		if i == 0 || !ops[i-1].accepted.After(op.due) {
			late = append(late, op.sent.Sub(op.due).Seconds()*1e3)
		}
		if op.err == "" {
			pollc <- op
		}
	}
	close(pollc)
	pollWG.Wait()
	wall := time.Since(start).Seconds()
	end(len(ops))
	return phaseResult{Name: name, Attempted: len(ops), Failed: countFailed(ops), WallS: wall,
		LateP95Ms: percentile(late, 95)}
}

// phaseTimeout bounds how long a phase waits for its jobs to settle.
const phaseTimeout = 60 * time.Second

// sleepUntil sleeps to just before t and spins the rest: time.Sleep
// alone overshoots by more than the lateness the generator may have.
func sleepUntil(t time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func countFailed(ops []*jobOp) int {
	n := 0
	for _, op := range ops {
		if op.err != "" {
			n++
		}
	}
	return n
}

// latenciesMs returns accept and done latencies (from the due time) of
// the operations that did not fail.
func latenciesMs(ops []*jobOp) (accept, done []float64) {
	for _, op := range ops {
		if op.err != "" {
			continue
		}
		accept = append(accept, op.accepted.Sub(op.due).Seconds()*1e3)
		done = append(done, op.done.Sub(op.due).Seconds()*1e3)
	}
	return accept, done
}

// selfCPUSeconds is the load generator's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
