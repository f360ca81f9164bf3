// Package serve turns the batch simulator into an online job service: an
// open system where MapReduce jobs arrive while the cluster is live,
// admission control sheds load the cluster cannot absorb, and every
// boundary event is recorded so any live run can be replayed offline,
// byte for byte.
//
// The layering is deliberate. internal/sched remains the closed-system
// scheduler (policies, placement, backfill); serve wraps its incremental
// API with the things only an open system needs: per-tenant quotas, a
// bounded admission queue with reject/shed backpressure, a job lifecycle
// (submitted → queued → running → done/failed, plus rejected and
// cancelled), and the wall-clock boundary. Live mode maps wall-clock
// arrivals onto virtual time through the des engine's injection
// primitive; replay mode drives the identical admission code from a
// recorded trace, with no wall clock anywhere. See DESIGN.md, "Online
// serving".
package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/sched"
)

// State is a job's position in the service lifecycle.
type State int

const (
	// Rejected jobs never reached the cluster: admission control turned
	// them away (shed, quota, or invalid submission).
	Rejected State = iota
	// Queued jobs passed admission and wait for a gang.
	Queued
	// Running jobs hold a gang.
	Running
	// Done jobs completed and their output digest is recorded.
	Done
	// Failed jobs were admitted but could not launch.
	Failed
	// Cancelled jobs were withdrawn from the queue before placement.
	Cancelled
)

// String names the state for reports and JSON.
func (s State) String() string {
	switch s {
	case Rejected:
		return "rejected"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return "unknown"
}

// Request is one submission crossing the service boundary, and the ONE
// declaration of what a submission is: it is the POST /jobs body, it is
// embedded whole in the arrival-trace line (Arrival) and in the fleet
// router's job table (fleet.FleetJob), and replay, failover and steal
// re-admit it as-is. A new submission field is added here and nowhere
// else. JSON keys decode case-insensitively, so bodies keyed "Tenant" /
// "MinGang" / "TraceID" — what a router built before Request carried
// tags marshals — still decode.
type Request struct {
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	Params Params `json:"params,omitempty"`
	// Weight and MinGang pass through to the scheduler policy (see
	// sched.JobSpec).
	Weight  int `json:"weight,omitempty"`
	MinGang int `json:"minGang,omitempty"`
	// Class names the service class ("batch", "standard", "interactive";
	// empty means batch) and Deadline the relative completion SLO (ns) —
	// both pass through to sched.JobSpec, where admission may reject a
	// predicted miss, or demote the job to batch instead when Downgrade
	// is set. Elastic opts a molded gang into grow-back. All omitted for
	// plain submissions, keeping pre-SLO traces byte-identical.
	Class     string   `json:"class,omitempty"`
	Deadline  des.Time `json:"deadline,omitempty"`
	Downgrade bool     `json:"downgrade,omitempty"`
	Elastic   bool     `json:"elastic,omitempty"`
	// Tag is an optional submitter-chosen correlation handle, recorded in
	// the arrival trace and echoed in the job record. The fleet router
	// keys its cross-shard job table on it: after a shard loss or router
	// restart, tags are what let re-admitted jobs be matched to their
	// fleet-level identity.
	Tag string `json:"tag,omitempty"`
	// TraceID is the causal correlation ID threaded through the whole
	// stack: the fleet router stamps one on every submission it routes
	// (defaulting to the fleet tag), and serve echoes it into the job
	// record, the arrival trace, and the job's obs streams, so a job's
	// journey router -> shard -> sched -> core reads as one chain.
	// Omitted for direct submissions, keeping pre-fleet traces
	// byte-identical.
	TraceID string `json:"traceId,omitempty"`
}

// JobInfo is the service's record of one submission. All times are
// virtual (simulated) times.
type JobInfo struct {
	ID     int    `json:"id"`
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Params Params `json:"params,omitempty"`
	Tag    string `json:"tag,omitempty"`
	// TraceID is the fleet-level causal correlation ID (see
	// Request.TraceID); empty for direct submissions.
	TraceID string `json:"traceId,omitempty"`

	State  State  `json:"-"`
	Status string `json:"state"` // State.String(), kept in sync for JSON
	Reason string `json:"reason,omitempty"`

	Arrival des.Time `json:"arrival"`
	Admit   des.Time `json:"admit,omitempty"`
	Finish  des.Time `json:"finish,omitempty"`

	Want    int `json:"want,omitempty"`
	Granted int `json:"granted,omitempty"`

	// The submission's scheduling requests, echoed as given so a
	// restarted fleet router that adopts the job from this record
	// re-admits it with them (fleet.Router.recover). Omitted at their
	// zero values, as in Request.
	Weight    int  `json:"weight,omitempty"`
	MinGang   int  `json:"minGang,omitempty"`
	Downgrade bool `json:"downgrade,omitempty"`
	Elastic   bool `json:"elastic,omitempty"`

	// SLO record: normalized class name (set only when the submission used
	// SLO features), relative deadline, whether admission demoted the job
	// to batch, and — on a shed/quota reject — the predicted queue-drain
	// retry hint in wall seconds (the HTTP 429 Retry-After value).
	Class      string   `json:"class,omitempty"`
	Deadline   des.Time `json:"deadline,omitempty"`
	Downgraded bool     `json:"downgraded,omitempty"`
	RetryAfter int      `json:"retryAfter,omitempty"`

	// Digest is the canonical output digest (core.OutputDigester), valid
	// when HasDigest is set — the replay-verification handle.
	Digest    uint64 `json:"digest,omitempty"`
	HasDigest bool   `json:"hasDigest,omitempty"`

	WireBytes int64 `json:"wireBytes,omitempty"`
}

// TenantStats aggregates one tenant's admission history.
type TenantStats struct {
	Submitted int64
	Admitted  int64
	Rejected  int64
	Done      int64
}

// ClassStats aggregates one service class's SLO history. Met/Missed
// count only deadline-carrying completions; Rejected counts SLO
// admission rejects (predicted misses without downgrade).
type ClassStats struct {
	Submitted int64
	Done      int64
	Met       int64
	Missed    int64
	Rejected  int64
}

// Stats aggregates the service's admission and completion counters, plus
// the current queue/running gauges.
type Stats struct {
	Submitted       int64
	Admitted        int64
	Done            int64
	Failed          int64
	Cancelled       int64
	RejectedShed    int64
	RejectedQuota   int64
	RejectedInvalid int64
	RejectedSLO     int64 // predicted deadline misses turned away at admission

	Queued  int64 // gauge: currently waiting for a gang
	Running int64 // gauge: currently holding gangs

	WireBytes    int64    // cross-node traffic of completed jobs
	WaitTotal    des.Time // Σ (admit − arrival) over placed jobs
	ServiceTotal des.Time // Σ (finish − admit) over placed jobs

	// WaitHist and ServiceHist are the bucketed counterparts of the
	// integrals above, exposed as Prometheus histograms so p50/p95 are
	// scrapeable without client-side deltas.
	WaitHist    *Histogram
	ServiceHist *Histogram

	Tenants map[string]*TenantStats

	// Classes breaks attainment down by service class; nil until the first
	// submission that uses SLO features, so pre-SLO runs are unchanged.
	Classes map[string]*ClassStats
}

// rejected sums the reject counters.
func (s *Stats) rejected() int64 {
	return s.RejectedShed + s.RejectedQuota + s.RejectedInvalid + s.RejectedSLO
}

// clone deep-copies the stats for a snapshot.
func (s *Stats) clone() Stats {
	out := *s
	out.WaitHist = s.WaitHist.clone()
	out.ServiceHist = s.ServiceHist.clone()
	out.Tenants = make(map[string]*TenantStats, len(s.Tenants))
	for k, v := range s.Tenants {
		c := *v
		out.Tenants[k] = &c
	}
	if s.Classes != nil {
		out.Classes = make(map[string]*ClassStats, len(s.Classes))
		for k, v := range s.Classes {
			c := *v
			out.Classes[k] = &c
		}
	}
	return out
}

// Config shapes one service instance.
type Config struct {
	// Cluster must leave Shards at 0: the service runs the single engine.
	Cluster cluster.Config
	Policy  sched.Policy
	Catalog *Catalog

	// MaxQueue bounds the admission queue: a submission arriving while
	// MaxQueue jobs already wait is shed with a reject, the service's
	// backpressure signal. 0 defaults to 64; negative means unbounded.
	MaxQueue int
	// Quota caps any one tenant's in-flight jobs (queued + running);
	// 0 means unlimited.
	Quota int

	// TimeScale maps wall-clock onto virtual time in live mode: an
	// arrival T wall-seconds after start lands at T·TimeScale virtual
	// seconds (or at the engine frontier, whichever is later — virtual
	// time never runs backwards). 0 defaults to 1. Replay ignores it.
	TimeScale float64
	// TraceW, when set, records the live arrival trace (JSONL; see
	// trace.go). Replay ignores it.
	TraceW io.Writer

	// KeepOutputs retains the canonical rendered output of the most
	// recent KeepOutputs completed jobs (core.OutputRenderer text), so
	// results can be retrieved after completion — the fleet router
	// proxies them. 0 disables retention. Retention never affects
	// reports: outputs are a side table, not report state.
	KeepOutputs int
}

func (c Config) withDefaults() Config {
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	return c
}

// header captures everything admission depends on for the trace.
func (c Config) header() Header {
	return Header{
		Version:     TraceVersion,
		Policy:      c.Policy.Kind.String(),
		Share:       c.Policy.Share,
		GPUs:        c.Cluster.GPUs,
		GPUsPerNode: c.Cluster.GPUsPerNode,
		MaxQueue:    c.MaxQueue,
		Quota:       c.Quota,
		PhysBudget:  c.Catalog.PhysBudget(),
		Reserve:     c.Policy.Reserve,
		Preempt:     c.Policy.Preempt,
	}
}

// session is the mode-independent half of the service: the engine,
// cluster, scheduler, and bookkeeping shared by live and replay runs.
// All mutations happen at engine time (engine-confined); the mutex only
// publishes job records and stats to foreign reader goroutines (HTTP).
type session struct {
	cfg Config
	sch *sched.Scheduler
	eng *des.Engine      // sch's hub engine
	cl  *cluster.Cluster // sch's cluster
	rec *TraceWriter

	mu       sync.Mutex
	jobs     []*JobInfo
	stats    Stats
	inflight map[string]int // per-tenant queued+running
	vnow     des.Time       // virtual time of the last state change

	// Fleet identity, stamped by the router's registration handshake
	// (empty when the daemon runs standalone).
	fleetShard string
	fleetEpoch int

	// Retained job outputs (Config.KeepOutputs most recent completions).
	outputs  map[int]string
	outOrder []int // completion order, for eviction

	// Engine-confined (never read by foreign goroutines):
	runnables []core.Runnable // by serve ID; dropped once digested
	schedOf   []int           // serve ID → sched ID, -1 when never admitted
	serveOf   map[int]int     // sched ID → serve ID
}

func newSession(cfg Config) (*session, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("serve: config needs a Catalog")
	}
	// A trace header cannot record a shard count, so a sharded live run
	// would not replay to its own report.
	if cfg.Cluster.Shards != 0 {
		return nil, fmt.Errorf("serve: Cluster.Shards = %d; the service runs the single engine (Shards 0)", cfg.Cluster.Shards)
	}
	sch, err := sched.New(cfg.Cluster, cfg.Policy)
	if err != nil {
		return nil, err
	}
	ses := &session{
		cfg:      cfg,
		sch:      sch,
		eng:      sch.Engine(),
		cl:       sch.Cluster(),
		inflight: make(map[string]int),
		serveOf:  make(map[int]int),
		outputs:  make(map[int]string),
	}
	ses.stats.Tenants = make(map[string]*TenantStats)
	ses.stats.WaitHist = newLatencyHistogram()
	ses.stats.ServiceHist = newLatencyHistogram()
	if cfg.TraceW != nil {
		ses.rec = NewTraceWriter(cfg.TraceW, cfg.header())
	}
	sch.OnStart = ses.onStart
	sch.OnDone = ses.onDone
	sch.OnRequeue = ses.onRequeue
	return ses, nil
}

// tenantStats returns (creating) one tenant's counters. Callers hold mu.
func (ses *session) tenantStats(tenant string) *TenantStats {
	ts := ses.stats.Tenants[tenant]
	if ts == nil {
		ts = &TenantStats{}
		ses.stats.Tenants[tenant] = ts
	}
	return ts
}

// classStats returns (creating) one service class's counters. Callers
// hold mu. The Classes map itself is created lazily so pre-SLO runs
// never carry it.
func (ses *session) classStats(class string) *ClassStats {
	if ses.stats.Classes == nil {
		ses.stats.Classes = make(map[string]*ClassStats)
	}
	cs := ses.stats.Classes[class]
	if cs == nil {
		cs = &ClassStats{}
		ses.stats.Classes[class] = cs
	}
	return cs
}

// retryAfter predicts, in wall seconds, how long a shed submitter
// should back off: the cost-model drain time of the current queue,
// mapped through TimeScale and clamped to [1s, 1h]. Engine-confined
// (reads scheduler state).
func (ses *session) retryAfter() int {
	scale := ses.cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	secs := int(math.Ceil(ses.sch.QueuedCost().Seconds() / scale))
	if secs < 1 {
		secs = 1
	}
	if secs > 3600 {
		secs = 3600
	}
	return secs
}

// arrive runs one submission through admission at the current simulated
// time. Engine-confined; returns a copy of the job's record.
func (ses *session) arrive(now des.Time, req Request) JobInfo {
	id := len(ses.jobs)
	name := fmt.Sprintf("%s-%s-%d", req.Tenant, req.Kind, id)
	// The trace records every arrival — including ones about to be
	// rejected — because rejects are decisions, and decisions are
	// recomputed on replay, not recorded.
	if ses.rec != nil {
		ses.rec.Arrive(Arrival{Seq: id, At: now, Request: req})
	}

	info := &JobInfo{
		ID: id, Tenant: req.Tenant, Kind: req.Kind, Name: name, Params: req.Params,
		Tag: req.Tag, TraceID: req.TraceID, Arrival: now,
		State: Rejected, Status: Rejected.String(),
		Weight: req.Weight, MinGang: req.MinGang, Downgrade: req.Downgrade, Elastic: req.Elastic,
	}
	ses.runnables = append(ses.runnables, nil)
	ses.schedOf = append(ses.schedOf, -1)
	if r := ses.cl.Obs; r.Enabled() {
		// The trace attr ties this job's streams to the fleet-level causal
		// chain; attached only when present so pre-fleet recordings stay
		// byte-identical.
		attrs := []obs.Attr{obs.A("tenant", req.Tenant), obs.A("kind", req.Kind)}
		if req.TraceID != "" {
			attrs = append(attrs, obs.A("trace", req.TraceID))
		}
		r.Emit(int64(now), obs.CatSim, "serve/"+name, "arrive", attrs...)
	}

	// Parse and build before taking mu: a build runs for milliseconds (wo's
	// dictionary and hash), and mu is what every HTTP reader waits on. The
	// outcomes are judged below, in the order they always were — bad class,
	// bad build, shed, quota.
	cls, clsErr := sched.ParseClass(req.Class)
	var run core.Runnable
	var buildErr error
	if clsErr == nil {
		run, buildErr = ses.cfg.Catalog.Build(req.Kind, name, req.Params)
	}

	ses.mu.Lock()
	defer ses.mu.Unlock()
	ses.jobs = append(ses.jobs, info)
	ses.vnow = now
	ses.stats.Submitted++
	ts := ses.tenantStats(req.Tenant)
	ts.Submitted++

	reject := func(reason, class string, counter *int64) JobInfo {
		info.Reason = reason
		*counter = *counter + 1
		ts.Rejected++
		if r := ses.cl.Obs; r.Enabled() {
			r.Emit(int64(now), obs.CatSim, "serve/"+name, "reject", obs.A("reason", class))
		}
		return *info
	}

	if clsErr != nil {
		return reject(clsErr.Error(), "invalid", &ses.stats.RejectedInvalid)
	}
	// sloReq marks a submission that opted into any SLO feature; only
	// those carry a class record and feed the per-class stats, so plain
	// traffic reports exactly as before.
	sloReq := req.Class != "" || req.Deadline > 0 || req.Downgrade || req.Elastic
	var cs *ClassStats
	if sloReq {
		info.Class = cls.String()
		info.Deadline = req.Deadline
		cs = ses.classStats(info.Class)
		cs.Submitted++
	}

	if buildErr != nil {
		return reject(buildErr.Error(), "invalid", &ses.stats.RejectedInvalid)
	}
	info.Want = run.GangWant()
	if ses.cfg.MaxQueue >= 0 && ses.sch.QueueLen() >= ses.cfg.MaxQueue {
		info.RetryAfter = ses.retryAfter()
		return reject(fmt.Sprintf("shed: admission queue full (%d waiting)", ses.sch.QueueLen()),
			"shed", &ses.stats.RejectedShed)
	}
	if q := ses.cfg.Quota; q > 0 && ses.inflight[req.Tenant] >= q {
		info.RetryAfter = ses.retryAfter()
		return reject(fmt.Sprintf("quota: tenant %q has %d jobs in flight (cap %d)",
			req.Tenant, ses.inflight[req.Tenant], q), "quota", &ses.stats.RejectedQuota)
	}

	// Admission. Submit synchronously runs the admission scan, so OnStart
	// may fire (and flip the state to Running) before Submit returns —
	// set Queued first and let the hook overwrite. The hooks re-lock mu;
	// release it across the call.
	info.State = Queued
	info.Status = Queued.String()
	ses.stats.Admitted++
	ses.stats.Queued++
	ts.Admitted++
	ses.inflight[req.Tenant]++
	ses.runnables[id] = run
	ses.mu.Unlock()
	// Register first so the sched↔serve ID maps are in place before
	// Arrive runs admission — OnStart can fire synchronously from it.
	schedID, err := ses.sch.Register(sched.JobSpec{Job: run, Weight: req.Weight, MinGang: req.MinGang,
		Class: cls, Deadline: req.Deadline, DowngradeOnMiss: req.Downgrade, Elastic: req.Elastic})
	if err == nil {
		ses.schedOf[id] = schedID
		ses.serveOf[schedID] = id
		ses.sch.Arrive(schedID)
	}
	ses.mu.Lock()
	if err != nil {
		// The job was validated by the catalog but the scheduler still
		// refused it (e.g. it wants more ranks than the cluster has).
		info.State = Rejected
		info.Status = Rejected.String()
		ses.stats.Admitted--
		ses.stats.Queued--
		ts.Admitted--
		ses.inflight[req.Tenant]--
		ses.runnables[id] = nil
		return reject(err.Error(), "invalid", &ses.stats.RejectedInvalid)
	}
	if ses.sch.Rejected(schedID) {
		// The SLO admission check predicted a deadline miss and turned the
		// job away at arrival.
		info.State = Rejected
		info.Status = Rejected.String()
		ses.stats.Admitted--
		ses.stats.Queued--
		ts.Admitted--
		ses.inflight[req.Tenant]--
		ses.runnables[id] = nil
		if cs != nil {
			cs.Rejected++
		}
		return reject(fmt.Sprintf("slo: predicted to miss %v deadline", req.Deadline),
			"slo", &ses.stats.RejectedSLO)
	}
	if ses.sch.Downgraded(schedID) {
		info.Downgraded = true
	}
	return *info
}

// cancel withdraws a queued job at the current simulated time, or — when
// the policy preempts — checkpoint-preempts a running one, whose gang
// then frees at its next chunk boundary (onRequeue settles the record).
// Engine-confined.
func (ses *session) cancel(now des.Time, id int) bool {
	if id < 0 || id >= len(ses.jobs) {
		return false
	}
	info := ses.jobs[id]
	switch {
	case info.State == Queued && ses.sch.Cancel(ses.schedOf[id]):
		if ses.rec != nil {
			ses.rec.Cancel(Cancel{Seq: id, At: now})
		}
		if r := ses.cl.Obs; r.Enabled() {
			r.Emit(int64(now), obs.CatSim, "serve/"+info.Name, "cancel")
		}
		ses.runnables[id] = nil
		ses.mu.Lock()
		defer ses.mu.Unlock()
		ses.vnow = now
		info.State = Cancelled
		info.Status = Cancelled.String()
		info.Finish = now
		ses.stats.Cancelled++
		ses.stats.Queued--
		ses.inflight[info.Tenant]--
		return true
	case info.State == Running && ses.cfg.Policy.Preempt && ses.sch.PreemptCancel(ses.schedOf[id]):
		if ses.rec != nil {
			ses.rec.Cancel(Cancel{Seq: id, At: now})
		}
		if r := ses.cl.Obs; r.Enabled() {
			r.Emit(int64(now), obs.CatSim, "serve/"+info.Name, "cancel", obs.A("mode", "preempt"))
		}
		ses.mu.Lock()
		defer ses.mu.Unlock()
		ses.vnow = now
		return true
	}
	return false
}

// onStart is the scheduler's placement hook.
func (ses *session) onStart(schedID int, gang []int) {
	id := ses.serveOf[schedID]
	info := ses.jobs[id]
	ses.mu.Lock()
	defer ses.mu.Unlock()
	ses.vnow = ses.eng.Now()
	info.State = Running
	info.Status = Running.String()
	info.Admit = ses.eng.Now()
	info.Granted = len(gang)
	ses.stats.Queued--
	ses.stats.Running++
}

// onRequeue is the scheduler's checkpoint-preemption hook: the job's
// launch drained at a chunk boundary and either re-entered the queue
// (class preemption, elastic grow-back) or was torn down (preempt-
// cancel). Either way the gang is free and the record must reflect it.
func (ses *session) onRequeue(schedID int, cancelled bool) {
	id := ses.serveOf[schedID]
	info := ses.jobs[id]
	now := ses.eng.Now()
	if cancelled {
		ses.runnables[id] = nil
	}
	ses.mu.Lock()
	defer ses.mu.Unlock()
	ses.vnow = now
	ses.stats.Running--
	if cancelled {
		info.State = Cancelled
		info.Status = Cancelled.String()
		info.Finish = now
		ses.stats.Cancelled++
		ses.inflight[info.Tenant]--
		return
	}
	info.State = Queued
	info.Status = Queued.String()
	info.Admit = 0
	info.Granted = 0
	ses.stats.Queued++
}

// onDone is the scheduler's completion hook: extract the output digest,
// drop the job's runnable (a long-running service must not accumulate
// results), and settle the counters.
func (ses *session) onDone(schedID int, tr *core.Trace, err error) {
	id := ses.serveOf[schedID]
	info := ses.jobs[id]
	now := ses.eng.Now()
	var digest uint64
	var hasDigest bool
	var output string
	if err == nil {
		if d, ok := ses.runnables[id].(core.OutputDigester); ok {
			digest, hasDigest = d.OutputDigest()
		}
		if ses.cfg.KeepOutputs > 0 {
			if rr, ok := ses.runnables[id].(core.OutputRenderer); ok {
				var sb strings.Builder
				if rerr := rr.RenderOutput(&sb); rerr == nil {
					output = sb.String()
				}
			}
		}
	}
	ses.runnables[id] = nil

	ses.mu.Lock()
	defer ses.mu.Unlock()
	ses.vnow = now
	if output != "" {
		ses.outputs[id] = output
		ses.outOrder = append(ses.outOrder, id)
		for len(ses.outOrder) > ses.cfg.KeepOutputs {
			delete(ses.outputs, ses.outOrder[0])
			ses.outOrder = ses.outOrder[1:]
		}
	}
	info.Finish = now
	info.Digest = digest
	info.HasDigest = hasDigest
	ses.stats.Running--
	ses.inflight[info.Tenant]--
	ses.stats.WaitTotal += info.Admit - info.Arrival
	ses.stats.ServiceTotal += now - info.Admit
	ses.stats.WaitHist.Observe((info.Admit - info.Arrival).Seconds())
	ses.stats.ServiceHist.Observe((now - info.Admit).Seconds())
	if r := ses.cl.Obs; r.Enabled() {
		stream := "serve/" + info.Name
		r.Span(int64(info.Arrival), int64(info.Admit), obs.CatSim, stream, "job.wait")
		state := Done
		if err != nil {
			state = Failed
		}
		r.Span(int64(info.Admit), int64(now), obs.CatSim, stream, "job.run",
			obs.A("state", state.String()), obs.Int("gang", int64(info.Granted)))
	}
	if err != nil {
		info.State = Failed
		info.Status = Failed.String()
		info.Reason = err.Error()
		ses.stats.Failed++
		return
	}
	info.State = Done
	info.Status = Done.String()
	ses.stats.Done++
	ses.tenantStats(info.Tenant).Done++
	if info.Class != "" {
		cs := ses.classStats(info.Class)
		cs.Done++
		if info.Deadline > 0 {
			if now-info.Arrival <= info.Deadline {
				cs.Met++
			} else {
				cs.Missed++
			}
		}
	}
	if tr != nil {
		info.WireBytes = tr.WireBytes
		ses.stats.WireBytes += tr.WireBytes
	}
}

// report assembles the end-of-run record.
func (ses *session) report(makespan des.Time) *Report {
	ses.mu.Lock()
	defer ses.mu.Unlock()
	r := &Report{Cluster: ses.sch.Trace(makespan), Stats: ses.stats.clone()}
	for _, j := range ses.jobs {
		r.Jobs = append(r.Jobs, *j)
	}
	return r
}

// Report is a completed (drained) run: the cluster-level scheduling trace
// of everything admitted, the full serve-level job table, and the
// admission counters.
type Report struct {
	Cluster *sched.ClusterTrace
	Jobs    []JobInfo
	Stats   Stats
}

// String renders the report deterministically: a live run, its replay,
// and an equivalent offline sched.Run must print byte-identical text.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString(r.Cluster.String())
	s := &r.Stats
	// The slo reject count appears only when non-zero, so pre-SLO reports
	// stay byte-identical.
	slo := ""
	if s.RejectedSLO > 0 {
		slo = fmt.Sprintf(" slo %d", s.RejectedSLO)
	}
	fmt.Fprintf(&sb, "serve: %d submitted  %d done  %d failed  %d cancelled  %d rejected (shed %d quota %d invalid %d%s)\n",
		s.Submitted, s.Done, s.Failed, s.Cancelled, s.rejected(),
		s.RejectedShed, s.RejectedQuota, s.RejectedInvalid, slo)
	fmt.Fprintf(&sb, "serve: wait total %v  service total %v  wire %.1f MB\n",
		s.WaitTotal, s.ServiceTotal, float64(s.WireBytes)/1e6)
	tenants := make([]string, 0, len(s.Tenants))
	for t := range s.Tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		ts := s.Tenants[t]
		fmt.Fprintf(&sb, "  tenant %-10s submitted %3d  admitted %3d  rejected %3d  done %3d\n",
			t, ts.Submitted, ts.Admitted, ts.Rejected, ts.Done)
	}
	for _, c := range []string{"interactive", "standard", "batch"} {
		cs := s.Classes[c]
		if cs == nil {
			continue
		}
		fmt.Fprintf(&sb, "  class %-11s submitted %3d  done %3d  met %3d  missed %3d  rejected %3d\n",
			c, cs.Submitted, cs.Done, cs.Met, cs.Missed, cs.Rejected)
	}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		dig := "-"
		if j.HasDigest {
			dig = fmt.Sprintf("%016x", j.Digest)
		}
		reason := ""
		if j.Reason != "" {
			reason = "  " + j.Reason
		}
		fmt.Fprintf(&sb, "  sjob %3d %-9s %-24s arr %12v  fin %12v  dig %s%s\n",
			j.ID, j.State, j.Name, j.Arrival, j.Finish, dig, reason)
	}
	return sb.String()
}

// ErrDraining reports a submission or cancellation against a server that
// is shutting down.
var ErrDraining = errors.New("serve: server is draining")

// ErrUnknownJob reports a job ID outside the service's job table. HTTP
// handlers map it to 404, distinct from internal failures (500).
var ErrUnknownJob = errors.New("serve: unknown job")

// ErrNoOutput reports an output request for a job whose output is not
// retained: the job has not completed, retention is disabled
// (Config.KeepOutputs), or the output has been evicted.
var ErrNoOutput = errors.New("serve: output not retained")

// Server is the live service: a running engine fed through an injector,
// with wall-clock arrivals mapped onto virtual time at this boundary.
// Submit, Cancel, and the snapshot methods are safe from any goroutine.
type Server struct {
	ses   *session
	inj   *des.Injector
	base  time.Time
	scale float64

	draining  atomic.Bool
	drainOnce sync.Once
	runDone   chan struct{}
	makespan  des.Time
	report    *Report
	drainErr  error
}

// Start builds the cluster and begins serving. The engine runs on a
// background goroutine, parked whenever there is no work; Drain shuts it
// down.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ses, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	sv := &Server{
		ses:     ses,
		inj:     ses.sch.NewInjector(),
		base:    time.Now(),
		scale:   cfg.TimeScale,
		runDone: make(chan struct{}),
	}
	go func() {
		defer close(sv.runDone)
		sv.makespan = ses.sch.Run()
		ses.sch.Close()
	}()
	return sv, nil
}

// wallVT maps the current wall-clock offset onto virtual time.
func (sv *Server) wallVT() des.Time {
	return des.FromSeconds(time.Since(sv.base).Seconds() * sv.scale)
}

// Submit runs one submission through admission and returns its record —
// state Queued (or already Running) when admitted, Rejected with a reason
// when admission turned it away. It blocks until the simulation reaches
// the arrival's virtual time (normally instantaneous: a parked engine
// jumps straight to it).
func (sv *Server) Submit(req Request) (JobInfo, error) {
	if sv.draining.Load() {
		return JobInfo{}, ErrDraining
	}
	vt := sv.wallVT()
	ch := make(chan JobInfo, 1)
	err := sv.inj.Inject("serve.arrival", func(p *des.Proc) {
		if d := vt - p.Now(); d > 0 {
			p.SleepLate(d)
		}
		ch <- sv.ses.arrive(p.Now(), req)
	})
	if err != nil {
		return JobInfo{}, ErrDraining
	}
	return <-ch, nil
}

// Cancel withdraws a queued job; it reports false when the job is
// already running, finished, or unknown. Cancels apply at the engine
// frontier rather than the wall-mapped instant: unlike an arrival, a
// cancel may be a no-op, and a no-op must not advance virtual time (an
// unrecorded advance would make the live makespan diverge from the
// trace's replay). The successful case records its actual application
// time, which is all replay needs.
func (sv *Server) Cancel(id int) (bool, error) {
	if sv.draining.Load() {
		return false, ErrDraining
	}
	ch := make(chan bool, 1)
	err := sv.inj.Inject("serve.cancel", func(p *des.Proc) {
		ch <- sv.ses.cancel(p.Now(), id)
	})
	if err != nil {
		return false, ErrDraining
	}
	return <-ch, nil
}

// Job returns a snapshot of one job's record.
func (sv *Server) Job(id int) (JobInfo, bool) {
	sv.ses.mu.Lock()
	defer sv.ses.mu.Unlock()
	if id < 0 || id >= len(sv.ses.jobs) {
		return JobInfo{}, false
	}
	return *sv.ses.jobs[id], true
}

// Jobs returns a snapshot of every job record, by ID.
func (sv *Server) Jobs() []JobInfo {
	sv.ses.mu.Lock()
	defer sv.ses.mu.Unlock()
	out := make([]JobInfo, len(sv.ses.jobs))
	for i, j := range sv.ses.jobs {
		out[i] = *j
	}
	return out
}

// Stats returns a snapshot of the admission counters.
func (sv *Server) Stats() Stats {
	sv.ses.mu.Lock()
	defer sv.ses.mu.Unlock()
	return sv.ses.stats.clone()
}

// Draining reports whether the server has begun shutting down. The
// health endpoint uses it so a fleet router can tell a draining shard
// (expected: its jobs will finish) from a lost one (failover).
func (sv *Server) Draining() bool { return sv.draining.Load() }

// SetFleet stamps the server's fleet identity — its shard ID and the
// ring epoch it joined at — into the job service and, when recording,
// the arrival-trace header. It must be called before the first job
// arrives; stamping a trace whose header has already been written fails.
func (sv *Server) SetFleet(shard string, epoch int) error {
	if shard == "" {
		return errors.New("serve: empty fleet shard id")
	}
	ses := sv.ses
	if ses.rec != nil {
		if err := ses.rec.SetFleet(shard, epoch); err != nil {
			return err
		}
	}
	ses.mu.Lock()
	defer ses.mu.Unlock()
	ses.fleetShard, ses.fleetEpoch = shard, epoch
	return nil
}

// FleetID returns the fleet identity stamped by SetFleet (empty shard
// when the daemon runs standalone).
func (sv *Server) FleetID() (shard string, epoch int) {
	sv.ses.mu.Lock()
	defer sv.ses.mu.Unlock()
	return sv.ses.fleetShard, sv.ses.fleetEpoch
}

// Output returns the retained canonical output text of a completed job
// (see Config.KeepOutputs). ErrUnknownJob for an ID outside the job
// table; ErrNoOutput when the job's output is not retained.
func (sv *Server) Output(id int) (string, error) {
	sv.ses.mu.Lock()
	defer sv.ses.mu.Unlock()
	if id < 0 || id >= len(sv.ses.jobs) {
		return "", fmt.Errorf("%w: %d", ErrUnknownJob, id)
	}
	out, ok := sv.ses.outputs[id]
	if !ok {
		return "", fmt.Errorf("%w: job %d is %s", ErrNoOutput, id, sv.ses.jobs[id].State)
	}
	return out, nil
}

// Drain stops accepting work, waits for every admitted job to finish,
// flushes the arrival trace, and returns the final report. Idempotent;
// concurrent callers all receive the same report.
func (sv *Server) Drain() (*Report, error) {
	sv.draining.Store(true)
	sv.drainOnce.Do(func() {
		if err := sv.inj.Close(); err != nil {
			sv.drainErr = err
		}
		<-sv.runDone
		sv.report = sv.ses.report(sv.makespan)
		if sv.ses.rec != nil {
			if err := sv.ses.rec.Flush(); err != nil && sv.drainErr == nil {
				sv.drainErr = err
			}
		}
	})
	return sv.report, sv.drainErr
}

// ReplayOptions tunes an offline replay.
type ReplayOptions struct {
	// Catalog overrides the default catalog built from the trace's
	// physical budget. It must match the catalog the live run used, or
	// replayed outputs will (detectably) diverge.
	Catalog *Catalog
	// Obs, when set, records the replay's flight-recorder trace (see
	// internal/obs). Recording does not perturb the replay: reports stay
	// byte-identical with and without it.
	Obs *obs.Recorder
}

// Replay feeds a recorded arrival trace through the identical admission
// and scheduling code with no wall clock anywhere: arrivals fire at their
// recorded virtual times from one deterministic process. The returned
// report — admissions, rejects, gangs, traces, output digests — is
// byte-identical to the live run's, and to any other replay of the same
// trace.
func Replay(tr *Trace, opt ReplayOptions) (*Report, error) {
	ses, makespan, err := replaySession(tr, opt)
	if err != nil {
		return nil, err
	}
	return ses.report(makespan), nil
}

// replaySession runs a replay to completion and returns the drained
// session, so internal callers (tests, timeline snapshots) can inspect
// more than the report. The cluster is already closed on return.
func replaySession(tr *Trace, opt ReplayOptions) (*session, des.Time, error) {
	pol, err := tr.Header.policy()
	if err != nil {
		return nil, 0, err
	}
	cc := cluster.DefaultConfig(tr.Header.GPUs)
	if tr.Header.GPUsPerNode > 0 {
		cc.GPUsPerNode = tr.Header.GPUsPerNode
	}
	cc.Obs = opt.Obs
	cat := opt.Catalog
	if cat == nil {
		cat = DefaultCatalog(tr.Header.PhysBudget)
	}
	cfg := Config{
		Cluster:  cc,
		Policy:   pol,
		Catalog:  cat,
		MaxQueue: tr.Header.MaxQueue,
		Quota:    tr.Header.Quota,
	}.withDefaults()
	ses, err := newSession(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer ses.sch.Close()
	events := tr.Events
	ses.eng.Spawn("serve.replay", func(p *des.Proc) {
		for _, ev := range events {
			// Every record, zero gaps included: the recorded work was
			// injected (des/doc.go, "Boundary ordering").
			p.SleepLate(ev.at() - p.Now())
			if a := ev.Arrive; a != nil {
				info := ses.arrive(p.Now(), a.Request)
				if info.ID != a.Seq {
					panic(fmt.Sprintf("serve: replay assigned ID %d to recorded seq %d", info.ID, a.Seq))
				}
			} else {
				ses.cancel(p.Now(), ev.Cancel.Seq)
			}
		}
	})
	return ses, ses.sch.Run(), nil
}
