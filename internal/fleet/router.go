package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Shard names one gpmrd backend.
type Shard struct {
	ID  string `json:"id"`
	URL string `json:"url"` // base URL, e.g. http://127.0.0.1:8373
}

// Config shapes one router. Every field is a deployment setting: the
// retry schedule is fixed (submitRetries, retryBackoff, retryAfterCap).
type Config struct {
	Shards []Shard

	// LoadFactor is the bounded-load factor c: a shard's in-flight load
	// may exceed its fair share by at most c×. 0 defaults to 1.25;
	// negative disables the bound (plain consistent hashing). New rejects
	// NaN, ±Inf and 0 < c < 1, under which every shard sits at its bound.
	LoadFactor float64

	// ProbeInterval is the health-check cadence (default 500ms); each
	// probe is bounded by probeTimeout. FailAfter consecutive failures
	// mark a shard down (default 3).
	ProbeInterval time.Duration
	FailAfter     int

	// Logf receives router diagnostics. Defaults to log.Printf.
	Logf func(format string, args ...any)

	// Obs, when set, records the router's own decisions — routes, retries,
	// reroutes, failovers, and shard state transitions — as obs
	// events (streams "fleet/job/<tag>" and "fleet/shard/<id>", wall-clock
	// nanoseconds since router start). The timeline stitcher merges them
	// with the shards' virtual-time flight recordings into one causal
	// chain. Nil disables recording.
	Obs *obs.Recorder
}

// submitTimeout bounds one proxied request on the submission and read
// paths; probeTimeout bounds one probe, job-table fetch, registration or
// cancel; drainTimeout bounds one shard's drain handshake, which waits for
// every admitted job to finish.
//
// A proxied submission is retried submitRetries times against the same
// shard on transport errors or transient 5xx before the router fails over
// to the next ring candidate, with retryBackoff between tries, doubling.
// retryAfterCap bounds how long the router honors a shard's Retry-After
// header (429 backpressure and retried 5xx): the shard predicts its own
// queue drain, but the router will not stall a submission longer than
// this per try.
const (
	submitTimeout = 15 * time.Second
	probeTimeout  = 2 * time.Second
	drainTimeout  = 120 * time.Second

	submitRetries = 2
	retryBackoff  = 25 * time.Millisecond
	retryAfterCap = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Shard states as the router sees them.
const (
	shardUp       = "up"
	shardDraining = "draining"
	shardDown     = "down"
)

// shardRT is the router's live view of one shard.
type shardRT struct {
	Shard
	state   string
	fails   int // consecutive probe failures
	lastErr string
	routed  int64 // accepted submissions ever routed here
}

// FleetJob is the router's record of one fleet-level submission: the
// submission itself, carried whole so a failover re-admits exactly what
// the submitter sent (Tag is the correlation key shards
// echo; TraceID defaults to it), plus where it currently lives and the
// router's last known state for it.
type FleetJob struct {
	ID int `json:"id"` // fleet job id
	serve.Request

	Shard    string `json:"shard,omitempty"`  // owning shard
	ShardJob int    `json:"shardJob"`         // id on the owning shard
	State    string `json:"state"`            // router's last known state
	Reason   string `json:"reason,omitempty"` // terminal reason, if any
	Attempts int    `json:"attempts"`         // shard placements: the first, then one per failover
	Digest   string `json:"digest,omitempty"` // canonical output digest once done
}

// terminal reports whether a fleet job needs no further routing.
func (j *FleetJob) terminal() bool {
	switch j.State {
	case "done", "failed", "cancelled", "rejected":
		return true
	}
	return false
}

// stateSubmitted marks a job whose submission is in flight; the
// submitting goroutine owns it until a shard answers, so failover skips
// it (the submitter's own retry path reroutes).
const stateSubmitted = "submitted"

// Router is the fleet front door.
type Router struct {
	cfg  Config
	ring *Ring
	obs  *obs.Recorder // cfg.Obs; nil-safe
	base time.Time     // router start, the zero of its obs clock
	// sleep waits out one retry delay: time.Sleep, which in-package tests
	// replace to read the schedule without spending it.
	sleep func(time.Duration)

	mu      sync.Mutex
	shards  map[string]*shardRT
	order   []string // shard ids, sorted — deterministic iteration
	jobs    []*FleetJob
	byTag   map[string]*FleetJob
	epoch   int
	nextTag int
	stats   Stats

	draining atomic.Bool
	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	drainOnce  sync.Once
	drainResps []serve.DrainResponse
	drainErr   error
}

// New builds a router over the configured shards.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if c := cfg.LoadFactor; math.IsNaN(c) || math.IsInf(c, 0) || (c > 0 && c < 1) {
		return nil, fmt.Errorf("fleet: load factor %v: want >= 1, or negative for plain hashing", c)
	}
	ids := make([]string, 0, len(cfg.Shards))
	for _, s := range cfg.Shards {
		if s.URL == "" {
			return nil, fmt.Errorf("fleet: shard %q has no URL", s.ID)
		}
		ids = append(ids, s.ID)
	}
	ring, err := NewRing(ids, DefaultReplicas)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		obs:    cfg.Obs,
		base:   time.Now(),
		sleep:  time.Sleep,
		shards: make(map[string]*shardRT, len(cfg.Shards)),
		byTag:  make(map[string]*FleetJob),
		stopc:  make(chan struct{}),
	}
	for _, s := range cfg.Shards {
		rt.shards[s.ID] = &shardRT{Shard: s, state: shardUp}
		rt.order = append(rt.order, s.ID)
	}
	sort.Strings(rt.order)
	return rt, nil
}

// Start registers the router with every shard (stamping the fleet trace
// headers), adopts any tagged jobs the shards already hold (router
// restart) with one refresh, and begins health probing.
func (rt *Router) Start() {
	for _, id := range rt.order {
		rt.register(id)
	}
	rt.refresh()
	rt.wg.Add(1)
	go rt.probeLoop()
}

// Stop halts the probe loop without draining the shards (tests).
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stopc) })
	rt.wg.Wait()
}

// clockNs is the router's obs timebase: wall-clock nanoseconds since the
// router started. The shards' recordings run on virtual time; the
// stitched timeline keeps the two domains apart by lane group, and the
// router events travel as recorded data (never recomputed), so live and
// offline stitches of the same run agree byte for byte.
func (rt *Router) clockNs() int64 {
	return time.Since(rt.base).Nanoseconds()
}

// jobStream / shardStream name the router's obs timelines.
func jobStream(tag string) string  { return "fleet/job/" + tag }
func shardStream(id string) string { return "fleet/shard/" + id }

// WriteObs dumps the router's own recording as canonical JSONL — the
// offline stitcher's router-side input (conventionally RouterObsName in
// the shard trace directory).
func (rt *Router) WriteObs(w io.Writer) error {
	return rt.obs.WriteJSONL(w)
}

// register performs the registration handshake with one shard.
func (rt *Router) register(id string) {
	rt.mu.Lock()
	s := rt.shards[id]
	url := s.URL
	epoch := rt.epoch
	rt.mu.Unlock()
	body, _ := json.Marshal(serve.FleetRegistration{Shard: id, Epoch: epoch})
	resp, err := rt.do(http.MethodPost, url+"/fleet/register", body, probeTimeout)
	if err != nil {
		rt.cfg.Logf("fleet: registering shard %s: %v", id, err)
		return
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		rt.cfg.Logf("fleet: registering shard %s: status %d", id, resp.StatusCode)
	}
}

// SubmitStatus is a routed submission's outcome, mirroring the HTTP
// status the front door surfaces.
type SubmitStatus struct {
	Code  int           // 202, 400, 409, 429, or 503
	Job   FleetJob      // the fleet record (zero Job.Tag when nothing was recorded)
	Shard serve.JobInfo // the owning shard's record, when a shard answered
	Err   string        // router-level error, when Code is 409 or 503
}

// Submit routes one submission onto the fleet: bounded-load consistent
// hash on the tenant, retry with backoff against the picked shard, and
// failover to the next ring candidate when a shard cannot answer. Tags
// key the fleet table, so a submitter-chosen tag already in it is refused
// with 409.
func (rt *Router) Submit(req serve.Request) SubmitStatus {
	if rt.draining.Load() {
		return SubmitStatus{Code: http.StatusServiceUnavailable, Err: "fleet: router is draining"}
	}
	rt.mu.Lock()
	if req.Tag != "" && rt.byTag[req.Tag] != nil {
		rt.mu.Unlock()
		return SubmitStatus{Code: http.StatusConflict, Err: fmt.Sprintf("fleet: tag %q is already in use", req.Tag)}
	}
	rt.stats.Submitted++
	// A fresh tag skips any "f<n>" that an adopted job or a submitter
	// already holds.
	for req.Tag == "" || rt.byTag[req.Tag] != nil {
		req.Tag = fmt.Sprintf("f%d", rt.nextTag)
		rt.nextTag++
	}
	// Stamp the causal trace ID: submitter-chosen if present, else the
	// fleet tag — every shard this job touches echoes it back.
	if req.TraceID == "" {
		req.TraceID = req.Tag
	}
	job := &FleetJob{ID: len(rt.jobs), Request: req, State: stateSubmitted}
	rt.jobs = append(rt.jobs, job)
	rt.byTag[req.Tag] = job
	rt.mu.Unlock()

	info, code, shardID, err := rt.route(req, nil)

	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch {
	case err != nil:
		job.State = "rejected"
		job.Reason = err.Error()
		rt.stats.Unrouted++
		return SubmitStatus{Code: http.StatusServiceUnavailable, Job: *job, Err: err.Error()}
	case code == http.StatusAccepted:
		job.Shard = shardID
		job.ShardJob = info.ID
		job.State = info.Status
		job.Attempts++
		rt.stats.Accepted++
		rt.shards[shardID].routed++
		return SubmitStatus{Code: code, Job: *job, Shard: info}
	default: // 429 or 400 from the shard: an explicit, terminal answer
		job.Shard = shardID
		job.ShardJob = info.ID
		job.State = "rejected"
		job.Reason = info.Reason
		job.Attempts++
		rt.stats.Rejected++
		return SubmitStatus{Code: code, Job: *job, Shard: info}
	}
}

// route picks shards along the ring until one gives a terminal answer.
// exclude lists shards already tried (or known dead) this routing.
func (rt *Router) route(req serve.Request, exclude map[string]bool) (serve.JobInfo, int, string, error) {
	if exclude == nil {
		exclude = make(map[string]bool)
	}
	for hop := 0; ; hop++ {
		rt.mu.Lock()
		eligible := make(map[string]int)
		for id, s := range rt.shards {
			if s.state == shardUp && !exclude[id] {
				eligible[id] = 0
			}
		}
		for _, j := range rt.jobs {
			if _, ok := eligible[j.Shard]; ok && !j.terminal() {
				eligible[j.Shard]++
			}
		}
		rt.mu.Unlock()
		shard, ok := rt.ring.Pick(req.Tenant, eligible, rt.cfg.LoadFactor)
		if !ok {
			rt.obs.Emit(rt.clockNs(), obs.CatSim, jobStream(req.Tag), "unrouted",
				obs.Int("hops", int64(hop)))
			return serve.JobInfo{}, 0, "", errors.New("fleet: no live shard can take the job")
		}
		if hop > 0 {
			rt.mu.Lock()
			rt.stats.Reroutes++
			rt.mu.Unlock()
			rt.obs.Emit(rt.clockNs(), obs.CatSim, jobStream(req.Tag), "reroute",
				obs.A("to", shard), obs.Int("hop", int64(hop)))
		}
		info, code, err := rt.postJob(shard, req)
		if err != nil {
			// Transport failure after retries: let the prober see it too,
			// and move to the next ring candidate.
			rt.noteFailure(shard, err)
			exclude[shard] = true
			continue
		}
		if code == http.StatusServiceUnavailable {
			// The shard answered but is draining: reroute, don't retry it.
			rt.markDraining(shard)
			exclude[shard] = true
			continue
		}
		rt.obs.Emit(rt.clockNs(), obs.CatSim, jobStream(req.Tag), "route",
			obs.A("shard", shard), obs.Int("code", int64(code)), obs.Int("hops", int64(hop)))
		return info, code, shard, nil
	}
}

// postJob posts one submission to one shard with retry/backoff on
// transport errors and transient 5xx. A Retry-After header on a 429 or
// retried 5xx overrides the exponential backoff (capped at
// retryAfterCap): the shard predicts its own queue drain, so its hint
// beats a blind schedule.
func (rt *Router) postJob(shardID string, req serve.Request) (serve.JobInfo, int, error) {
	rt.mu.Lock()
	url := rt.shards[shardID].URL
	rt.mu.Unlock()
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobInfo{}, 0, err
	}
	backoff := retryBackoff
	var wait time.Duration // next try's delay, when a Retry-After hint overrides backoff
	var lastErr error
	for try := 0; try <= submitRetries; try++ {
		if try > 0 {
			d := backoff
			backoff *= 2
			if wait > 0 {
				d = wait
				wait = 0
			}
			rt.sleep(d)
			rt.mu.Lock()
			rt.stats.Retries++
			rt.mu.Unlock()
			rt.obs.Emit(rt.clockNs(), obs.CatSim, jobStream(req.Tag), "retry",
				obs.A("shard", shardID), obs.Int("try", int64(try)))
		}
		resp, err := rt.do(http.MethodPost, url+"/jobs", body, submitTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		code := resp.StatusCode
		if code >= 500 && code != http.StatusServiceUnavailable {
			wait = retryAfterHint(resp)
			drainBody(resp)
			lastErr = fmt.Errorf("fleet: shard %s answered %d", shardID, code)
			continue
		}
		var info serve.JobInfo
		if code != http.StatusServiceUnavailable {
			if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
				drainBody(resp)
				lastErr = fmt.Errorf("fleet: decoding shard %s answer: %w", shardID, err)
				continue
			}
		}
		if code == http.StatusTooManyRequests && try < submitRetries {
			if d := retryAfterHint(resp); d > 0 {
				// Backpressure with a drain prediction: wait it out and
				// retry the same shard instead of surfacing the reject.
				wait = d
				drainBody(resp)
				lastErr = fmt.Errorf("fleet: shard %s shedding (retry after %v)", shardID, d)
				continue
			}
		}
		drainBody(resp)
		return info, code, nil
	}
	return serve.JobInfo{}, 0, lastErr
}

// retryAfterHint parses a response's Retry-After seconds, capped at
// retryAfterCap; 0 when absent or unparseable.
func retryAfterHint(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	return min(d, retryAfterCap)
}

// probeLoop is the router's heartbeat: health-check every shard, sync the
// job table, fail over lost shards.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopc:
			return
		case <-ticker.C:
			dead := rt.probeAll()
			rt.refresh()
			for _, id := range dead {
				rt.failover(id)
			}
		}
	}
}

// probeAll health-checks every shard, returning shards that just died.
func (rt *Router) probeAll() (newlyDead []string) {
	rt.mu.Lock()
	ids := append([]string(nil), rt.order...)
	rt.mu.Unlock()
	for _, id := range ids {
		rt.mu.Lock()
		s := rt.shards[id]
		url := s.URL
		rt.mu.Unlock()
		resp, err := rt.do(http.MethodGet, url+"/healthz", nil, probeTimeout)
		switch {
		case err == nil && resp.StatusCode == http.StatusOK:
			drainBody(resp)
			rt.mu.Lock()
			s.fails = 0
			s.lastErr = ""
			if s.state != shardUp {
				// Rejoin: a restarted shard comes back empty; its lost jobs
				// were already re-admitted elsewhere.
				s.state = shardUp
				rt.epoch++
				epoch := rt.epoch
				rt.stats.Transitions++
				rt.mu.Unlock()
				rt.obs.Emit(rt.clockNs(), obs.CatSim, shardStream(id), "up", obs.Int("epoch", int64(epoch)))
				rt.cfg.Logf("fleet: shard %s rejoined (epoch %d)", id, epoch)
				rt.register(id)
				continue
			}
			rt.mu.Unlock()
		case err == nil && resp.StatusCode == http.StatusServiceUnavailable:
			drainBody(resp)
			rt.markDraining(id)
		default:
			if resp != nil {
				drainBody(resp)
				err = fmt.Errorf("healthz status %d", resp.StatusCode)
			}
			if died := rt.noteFailure(id, err); died {
				newlyDead = append(newlyDead, id)
			}
		}
	}
	return newlyDead
}

// noteFailure records one failed interaction with a shard; FailAfter
// consecutive failures take it out of the ring. Reports whether this
// call killed it.
func (rt *Router) noteFailure(id string, err error) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.shards[id]
	if s == nil || s.state == shardDown {
		return false
	}
	rt.stats.ProbeFails++
	s.fails++
	if err != nil {
		s.lastErr = err.Error()
	}
	if s.fails < rt.cfg.FailAfter {
		return false
	}
	s.state = shardDown
	rt.epoch++
	rt.stats.Transitions++
	rt.obs.Emit(rt.clockNs(), obs.CatSim, shardStream(id), "down",
		obs.Int("epoch", int64(rt.epoch)), obs.A("err", s.lastErr))
	rt.cfg.Logf("fleet: shard %s down after %d failed probes (epoch %d): %s", id, s.fails, rt.epoch, s.lastErr)
	return true
}

// markDraining flips a shard out of the routing set without failover:
// a draining shard finishes its admitted jobs.
func (rt *Router) markDraining(id string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.shards[id]
	if s == nil || s.state != shardUp {
		return
	}
	s.state = shardDraining
	rt.epoch++
	rt.stats.Transitions++
	rt.obs.Emit(rt.clockNs(), obs.CatSim, shardStream(id), "draining", obs.Int("epoch", int64(rt.epoch)))
	rt.cfg.Logf("fleet: shard %s draining (epoch %d)", id, rt.epoch)
}

// listJobs fetches one shard's job table.
func (rt *Router) listJobs(url string) ([]serve.JobInfo, error) {
	resp, err := rt.do(http.MethodGet, url+"/jobs", nil, probeTimeout)
	if err != nil {
		return nil, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: listing jobs: status %d", resp.StatusCode)
	}
	var infos []serve.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// refresh pulls every reachable shard's job table into the fleet table,
// matching on tags — the router's one sync. A tag the router has never
// seen is adopted: a restarted router rebuilds its table this way. A
// known tag updates its record only from the shard and shard job id that
// own it, so a copy left behind on another shard changes nothing.
func (rt *Router) refresh() {
	rt.mu.Lock()
	targets := make(map[string]string)
	for id, s := range rt.shards {
		if s.state != shardDown {
			targets[id] = s.URL
		}
	}
	rt.mu.Unlock()
	for _, id := range rt.order {
		url, ok := targets[id]
		if !ok {
			continue
		}
		infos, err := rt.listJobs(url)
		if err != nil {
			continue
		}
		rt.mu.Lock()
		for _, info := range infos {
			job := rt.byTag[info.Tag]
			if job == nil && info.Tag != "" {
				// Adoption rebuilds the submission from the shard's record —
				// the one place a Request is assembled from another type.
				job = &FleetJob{
					ID: len(rt.jobs),
					Request: serve.Request{Tenant: info.Tenant, Kind: info.Kind, Params: info.Params,
						Weight: info.Weight, MinGang: info.MinGang, Class: info.Class, Deadline: info.Deadline,
						Downgrade: info.Downgrade, Elastic: info.Elastic, Tag: info.Tag, TraceID: info.TraceID},
					Shard: id, ShardJob: info.ID, Attempts: 1,
				}
				rt.jobs = append(rt.jobs, job)
				rt.byTag[info.Tag] = job
			}
			if job == nil || job.Shard != id || job.ShardJob != info.ID {
				continue
			}
			job.State = info.Status
			job.Reason = info.Reason
			if info.HasDigest {
				job.Digest = fmt.Sprintf("%016x", info.Digest)
			}
		}
		rt.mu.Unlock()
	}
}

// failover re-admits a dead shard's unfinished jobs onto the survivors:
// queued-but-unstarted jobs lost their place in line, running jobs lost
// their simulated cluster — both are deterministic MapReduce jobs, so
// restart-from-scratch on a survivor is safe and byte-equivalent.
func (rt *Router) failover(dead string) {
	rt.mu.Lock()
	var orphans []*FleetJob
	for _, j := range rt.jobs {
		if j.Shard == dead && !j.terminal() && j.State != stateSubmitted {
			orphans = append(orphans, j)
		}
	}
	rt.mu.Unlock()
	if len(orphans) == 0 {
		return
	}
	rt.cfg.Logf("fleet: shard %s lost with %d unfinished jobs — re-admitting", dead, len(orphans))
	for _, j := range orphans {
		rt.readmit(j, dead)
	}
}

// readmit puts a dead shard's job back onto the fleet, routing around
// shard from, and settles its record. The submission is resent whole, and
// the outcomes are Submit's three: accepted, refused by the shard that
// answered, or unroutable — the last two end the job failed and count it
// lost.
func (rt *Router) readmit(j *FleetJob, from string) {
	why := "shard " + from + " lost"
	info, code, to, err := rt.route(j.Request, map[string]bool{from: true})
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch {
	case err != nil:
		j.State = "failed"
		j.Reason = why + "; re-admission failed: " + err.Error()
	case code == http.StatusAccepted:
		j.Shard = to
		j.ShardJob = info.ID
		j.State = info.Status
		j.Reason = ""
		j.Attempts++
		rt.stats.Failovers++
		rt.shards[to].routed++
		rt.obs.Emit(rt.clockNs(), obs.CatSim, jobStream(j.Tag), "failover", obs.A("from", from), obs.A("to", to))
		return
	default:
		// The shard that answered shed it: an explicit terminal answer.
		j.State = "failed"
		j.Reason = why + "; re-admission rejected: " + info.Reason
	}
	rt.stats.Lost++
	rt.obs.Emit(rt.clockNs(), obs.CatSim, jobStream(j.Tag), "lost", obs.A("from", from))
}

// Jobs snapshots the fleet job table.
func (rt *Router) Jobs() []FleetJob {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]FleetJob, len(rt.jobs))
	for i, j := range rt.jobs {
		out[i] = *j
	}
	return out
}

// Job snapshots one fleet job.
func (rt *Router) Job(id int) (FleetJob, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id < 0 || id >= len(rt.jobs) {
		return FleetJob{}, false
	}
	return *rt.jobs[id], true
}

// Stats is the router's counters; the router counts straight into one
// under its mutex and Stats() hands out a copy.
type Stats struct {
	Submitted   int64 `json:"submitted"`   // fleet-level submissions
	Accepted    int64 `json:"accepted"`    // routed to a shard, 202
	Rejected    int64 `json:"rejected"`    // shard answered 429/400
	Unrouted    int64 `json:"unrouted"`    // no live shard could take it, 503
	Retries     int64 `json:"retries"`     // same-shard submission retries
	Reroutes    int64 `json:"reroutes"`    // submissions moved to another ring candidate
	Failovers   int64 `json:"failovers"`   // jobs re-admitted after a shard loss
	Lost        int64 `json:"lost"`        // jobs no survivor would take
	Transitions int64 `json:"transitions"` // ring membership changes
	ProbeFails  int64 `json:"probeFails"`  // failed interactions with non-down shards
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stats
}

// ShardStatus is one shard's health snapshot.
type ShardStatus struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	State   string `json:"state"`
	Fails   int    `json:"fails,omitempty"`
	LastErr string `json:"lastErr,omitempty"`
	Queued  int    `json:"queued"`  // router-view queued jobs
	Running int    `json:"running"` // router-view running jobs
	Routed  int64  `json:"routed"`  // accepted submissions ever routed here
}

// RingStatus is the fleet health snapshot.
type RingStatus struct {
	Epoch    int           `json:"epoch"`
	Draining bool          `json:"draining"`
	Shards   []ShardStatus `json:"shards"`
}

// Status snapshots ring membership and per-shard health.
func (rt *Router) Status() RingStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := RingStatus{Epoch: rt.epoch, Draining: rt.draining.Load()}
	for _, id := range rt.order {
		s := rt.shards[id]
		ss := ShardStatus{ID: s.ID, URL: s.URL, State: s.state, Fails: s.fails, LastErr: s.lastErr, Routed: s.routed}
		for _, j := range rt.jobs {
			if j.Shard != id || j.terminal() {
				continue
			}
			switch j.State {
			case "queued":
				ss.Queued++
			case "running":
				ss.Running++
			}
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// jobURL resolves a fleet job to its owning shard's URL for path suffix:
// 404 for an unknown job, 409 (naming its state and reason) for one that
// was never placed, 502 when its shard is down.
func (rt *Router) jobURL(fleetID int, suffix string) (*FleetJob, string, int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if fleetID < 0 || fleetID >= len(rt.jobs) {
		return nil, "", http.StatusNotFound, fmt.Errorf("fleet: no job %d", fleetID)
	}
	j := rt.jobs[fleetID]
	if j.Shard == "" {
		return nil, "", http.StatusConflict, fmt.Errorf("fleet: job %d was never placed on a shard (state %s: %s)", fleetID, j.State, j.Reason)
	}
	if s := rt.shards[j.Shard]; s.state != shardDown {
		return j, fmt.Sprintf("%s/jobs/%d%s", s.URL, j.ShardJob, suffix), 0, nil
	}
	return nil, "", http.StatusBadGateway, fmt.Errorf("fleet: job %d's shard %s is down", fleetID, j.Shard)
}

// Proxy forwards a GET to the shard owning a fleet job (output,
// timeline, raw record), streaming the shard's answer through.
func (rt *Router) Proxy(w io.Writer, fleetID int, suffix string) (int, string, error) {
	_, url, code, err := rt.jobURL(fleetID, suffix)
	if err != nil {
		return code, "", err
	}
	resp, err := rt.do(http.MethodGet, url, nil, submitTimeout)
	if err != nil {
		return http.StatusBadGateway, "", err
	}
	defer drainBody(resp)
	if _, err := io.Copy(w, resp.Body); err != nil {
		return resp.StatusCode, resp.Header.Get("Content-Type"), err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), nil
}

// Cancel withdraws a queued fleet job from its shard.
func (rt *Router) Cancel(fleetID int) (int, error) {
	j, url, code, err := rt.jobURL(fleetID, "")
	if err != nil {
		return code, err
	}
	resp, err := rt.do(http.MethodDelete, url, nil, probeTimeout)
	if err != nil {
		return http.StatusBadGateway, err
	}
	code = resp.StatusCode
	drainBody(resp)
	if code == http.StatusOK {
		rt.mu.Lock()
		j.State = "cancelled"
		rt.mu.Unlock()
	}
	return code, nil
}

// Drain shuts the fleet down: stop probing, stop admitting, then walk
// every reachable shard through the drain handshake and collect its
// final report. Responses come back sorted by shard ID — the
// deterministic merge order. Idempotent: every caller after the first
// gets the cached responses.
func (rt *Router) Drain() ([]serve.DrainResponse, error) {
	rt.drainOnce.Do(func() { rt.drainResps, rt.drainErr = rt.drain() })
	return rt.drainResps, rt.drainErr
}

func (rt *Router) drain() ([]serve.DrainResponse, error) {
	rt.draining.Store(true)
	rt.Stop()
	rt.mu.Lock()
	type target struct{ id, url string }
	var targets []target
	for _, id := range rt.order {
		if s := rt.shards[id]; s.state != shardDown {
			targets = append(targets, target{id, s.URL})
		}
	}
	rt.mu.Unlock()
	var resps []serve.DrainResponse
	var firstErr error
	for _, t := range targets {
		resp, err := rt.do(http.MethodPost, t.url+"/drain", nil, drainTimeout)
		if err != nil {
			rt.cfg.Logf("fleet: draining shard %s: %v", t.id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var dr serve.DrainResponse
		err = json.NewDecoder(resp.Body).Decode(&dr)
		drainBody(resp)
		if err != nil {
			rt.cfg.Logf("fleet: decoding drain response from %s: %v", t.id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if dr.Shard == "" {
			dr.Shard = t.id // unregistered standalone shard
		}
		resps = append(resps, dr)
	}
	sort.Slice(resps, func(i, j int) bool { return resps[i].Shard < resps[j].Shard })
	return resps, firstErr
}

// do issues one HTTP request with a per-request timeout.
func (rt *Router) do(method, url string, body []byte, timeout time.Duration) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// cancelBody releases the request context when the body is closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// drainBody discards and closes a response body so connections recycle.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
