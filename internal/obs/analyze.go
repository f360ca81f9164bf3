package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the per-job analysis layer on top of the flight recorder:
// given a recording, find the jobs inside it and decompose one job's
// end-to-end latency into an ordered, gap-free phase breakdown with
// dominant-bottleneck attribution. The input events are a pure function
// of the simulation (see the package comment), so every number here is
// byte-identical across shard counts and kernel backends.
//
// A job owns up to three kinds of timelines, all derived from its run
// name (serve names jobs "<tenant>-<kind>-<id>"; bare core runs use the
// benchmark name):
//
//	serve/<name>   lifecycle: arrive, reject, cancel, job.wait, job.run
//	sched/<name>   scheduler: queue.wait, place, preempt, slo.reject
//	<name>/r<k>    per-rank pipeline phases, recovery, speculation
//
// Recordings that hold several runs separate them with SetPrefix, so a
// job is identified by (prefix, name) — a JobKey.

// JobKey identifies one job's timelines inside a recording: the run
// prefix installed with SetPrefix (often empty) plus the job's run name.
type JobKey struct {
	Prefix string `json:"prefix,omitempty"`
	Name   string `json:"name"`
}

// String returns the fully prefixed job name.
func (k JobKey) String() string { return k.Prefix + k.Name }

// JobStreams returns a stream predicate selecting every timeline of the
// named job (empty prefix): its serve lifecycle, scheduler decisions,
// and per-rank phases. The per-job timeline endpoint filters with it.
func JobStreams(name string) func(stream string) bool {
	return JobKey{Name: name}.streams().owns
}

// jobStreams names one job's timelines; owns is the one test of which
// streams are the job's, shared by the timeline filter and Explain.
type jobStreams struct{ serve, sched, rank string }

func (k JobKey) streams() jobStreams {
	return jobStreams{
		serve: k.Prefix + "serve/" + k.Name,
		sched: k.Prefix + "sched/" + k.Name,
		rank:  k.Prefix + k.Name + "/r",
	}
}

// owns reports whether stream is one of the job's timelines. A rank
// stream is "<name>/r<k>" with k all digits, so "a/rX-wo-7/r0" (a job of
// tenant "a/rX") is not one of job "a"'s. The prefix is tested first, so
// only a stream that starts like one of the job's reaches the digit scan.
func (js jobStreams) owns(stream string) bool {
	if rest, ok := strings.CutPrefix(stream, js.rank); ok {
		return digits(rest)
	}
	return stream == js.serve || stream == js.sched
}

// digits reports whether s is a non-empty run of decimal digits.
func digits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return s != ""
}

// rankName extracts the job name from a per-rank stream "<name>/r<k>",
// reporting whether s has that shape.
func rankName(s string) (string, bool) {
	i := strings.LastIndex(s, "/r")
	if i <= 0 || !digits(s[i+2:]) {
		return "", false
	}
	return s[:i], true
}

// Jobs lists every job in a recording, sorted by prefixed name. A job is
// keyed by its serve or sched stream when it has one; rank streams that
// no serve/sched job claims (bare core runs, e.g. gpmrsim's) contribute
// their own keys with the rank suffix stripped.
func Jobs(evs []Event) []JobKey {
	seen := make(map[JobKey]bool)
	named := make(map[string]bool) // every key's prefixed name
	var keys []JobKey
	add := func(k JobKey) {
		if !seen[k] {
			seen[k] = true
			named[k.String()] = true
			keys = append(keys, k)
		}
	}
	for i := range evs {
		s := evs[i].Stream
		if j := strings.Index(s, "serve/"); j >= 0 {
			add(JobKey{Prefix: s[:j], Name: s[j+len("serve/"):]})
		} else if j := strings.Index(s, "sched/"); j >= 0 {
			add(JobKey{Prefix: s[:j], Name: s[j+len("sched/"):]})
		}
	}
	for i := range evs {
		if name, ok := rankName(evs[i].Stream); ok && !named[name] {
			add(JobKey{Name: name})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if a, b := keys[i].String(), keys[j].String(); a != b {
			return a < b
		}
		return keys[i].Prefix < keys[j].Prefix
	})
	return keys
}

// ExplainPhase is one segment of a job's end-to-end latency. Segments
// are contiguous — each starts where the previous ended — so durations
// sum exactly to the job's latency.
type ExplainPhase struct {
	Name    string  `json:"name"`
	StartNs int64   `json:"startNs"`
	EndNs   int64   `json:"endNs"`
	DurNs   int64   `json:"durNs"`
	Pct     float64 `json:"pct"`
}

// Explanation is a deterministic decomposition of one job's end-to-end
// latency: a gap-free phase breakdown along the critical path, the
// dominant bottleneck as a share of latency, and counters for the
// disturbance events (restarts, preemptions, recoveries, speculative
// launches, steals) that shaped it.
type Explanation struct {
	Job     string `json:"job"`
	TraceID string `json:"traceId,omitempty"`
	State   string `json:"state"`

	ArrivalNs int64 `json:"arrivalNs"`
	FinishNs  int64 `json:"finishNs"`
	LatencyNs int64 `json:"latencyNs"`

	Gang         int    `json:"gang,omitempty"`
	Ranks        int    `json:"ranks,omitempty"`
	CriticalRank string `json:"criticalRank,omitempty"`

	Phases        []ExplainPhase `json:"phases"`
	Bottleneck    string         `json:"bottleneck,omitempty"`
	BottleneckNs  int64          `json:"bottleneckNs,omitempty"`
	BottleneckPct float64        `json:"bottleneckPct,omitempty"`

	Restarts     int `json:"restarts,omitempty"`
	Preemptions  int `json:"preemptions,omitempty"`
	Recoveries   int `json:"recoveries,omitempty"`
	Speculations int `json:"speculations,omitempty"`
	Steals       int `json:"steals,omitempty"`
}

// ExplainJob decomposes the named job (empty prefix). See Explain.
func ExplainJob(evs []Event, name string) Explanation {
	return Explain(evs, JobKey{Name: name})
}

// Explain decomposes one job's latency from a recording. The phase walk
// follows the critical path: wait (arrival to last placement), launch
// (placement to the critical rank's map start), then the critical rank's
// map/shuffle/sort/reduce spans, then commit (reduce end to the serve
// finish stamp). The critical rank is the one whose reduce phase ends
// last (ties: lexicographically smallest stream). Jobs that never ran
// collapse to a single wait phase; a restarted job's ranks and phases
// come from its final (successful) placement — rank events from before
// the last place belong to earlier attempts, which count in Restarts and
// stay inside wait. Phase segments are clamped monotone, so their
// durations always sum exactly to FinishNs - ArrivalNs.
func Explain(evs []Event, k JobKey) Explanation {
	js := k.streams()
	ex := Explanation{Job: k.String()}

	// One pass: job lifecycle stamps, last placement, per-rank last
	// phase spans (a restarted rank re-emits its phases; the final
	// attempt is the one that reached the finish line), and the
	// disturbance counters.
	type rankSet struct {
		m, sh, so, re *Event
		last          int64 // start of the rank stream's latest event
	}
	ranks := make(map[string]*rankSet)
	var (
		arriveE, runE, rejectE, cancelE, placeE *Event
		places                                  int
		minT, maxEnd                            int64
		any                                     bool
	)
	for i := range evs {
		e := &evs[i]
		if !js.owns(e.Stream) {
			continue
		}
		if !any || e.T < minT {
			minT = e.T
		}
		if end := e.End(); !any || end > maxEnd {
			maxEnd = end
		}
		any = true
		switch e.Stream {
		case js.serve:
			switch e.Kind {
			case "arrive":
				arriveE = e
				if ex.TraceID == "" {
					ex.TraceID = e.Attr("trace")
				}
			case "job.run":
				runE = e
			case "reject":
				rejectE = e
			case "cancel":
				cancelE = e
			}
		case js.sched:
			switch e.Kind {
			case "place":
				placeE = e
				places++
			case "preempt":
				ex.Preemptions++
			}
		default: // rank stream
			rs := ranks[e.Stream]
			if rs == nil {
				rs = &rankSet{}
				ranks[e.Stream] = rs
			}
			rs.last = e.T
			switch e.Kind {
			case "phase.map":
				rs.m = e
			case "phase.shuffle":
				rs.sh = e
			case "phase.sort":
				rs.so = e
			case "phase.reduce":
				rs.re = e
			case "recover":
				ex.Recoveries++
			case "spec.launch":
				ex.Speculations++
			case "steal":
				ex.Steals++
			}
		}
	}
	if places > 1 {
		ex.Restarts = places - 1
	}

	// Arrival: the serve arrive stamp; bare core runs (no serve stream)
	// start at their earliest event.
	switch {
	case arriveE != nil:
		ex.ArrivalNs = arriveE.T
	case runE != nil:
		ex.ArrivalNs = runE.T
	default:
		ex.ArrivalNs = minT
	}

	// The final placement's ranks, its gang unless serve's job.run names
	// one: those with an event at or after the last place (all of a bare
	// run's). Critical rank: latest reduce end; ties to the smallest stream.
	from := int64(math.MinInt64)
	if placeE != nil {
		from = placeE.T
	}
	rankStreams := make([]string, 0, len(ranks))
	for s, rs := range ranks {
		if rs.last >= from {
			rankStreams = append(rankStreams, s)
		}
	}
	sort.Strings(rankStreams)
	ex.Gang, ex.Ranks = len(rankStreams), len(rankStreams)
	var crit *rankSet
	for _, s := range rankStreams {
		rs := ranks[s]
		if rs.m == nil || rs.sh == nil || rs.so == nil || rs.re == nil || rs.re.T < from {
			continue
		}
		if crit == nil || rs.re.End() > crit.re.End() {
			crit = rs
			ex.CriticalRank = s
		}
	}

	// Terminal state and finish stamp.
	switch {
	case runE != nil:
		ex.State = runE.Attr("state")
		if ex.State == "" {
			ex.State = "done"
		}
		ex.FinishNs = runE.End()
		if g, err := strconv.Atoi(runE.Attr("gang")); err == nil {
			ex.Gang = g
		}
	case cancelE != nil:
		ex.State = "cancelled"
		ex.FinishNs = cancelE.T
	case rejectE != nil:
		ex.State = "rejected"
		ex.FinishNs = rejectE.T
	case crit != nil:
		ex.State = "done"
		ex.FinishNs = maxEnd
	case any:
		ex.State = "incomplete"
		ex.FinishNs = maxEnd
	}
	if ex.FinishNs < ex.ArrivalNs {
		ex.FinishNs = ex.ArrivalNs
	}
	ex.LatencyNs = ex.FinishNs - ex.ArrivalNs

	if !any {
		return ex
	}

	// Phase walk: contiguous segments over [arrival, finish], each
	// boundary clamped monotone so durations sum exactly to latency.
	cur := ex.ArrivalNs
	cut := func(name string, to int64) {
		if to < cur {
			to = cur
		}
		if to > ex.FinishNs {
			to = ex.FinishNs
		}
		ex.Phases = append(ex.Phases, ExplainPhase{Name: name, StartNs: cur, EndNs: to, DurNs: to - cur})
		cur = to
	}
	placed := ex.ArrivalNs
	if placeE != nil {
		placed = placeE.T
	} else if runE != nil {
		placed = runE.T
	}
	switch {
	case crit != nil:
		cut("wait", placed)
		cut("launch", crit.m.T)
		cut("map", crit.m.End())
		cut("shuffle", crit.sh.End())
		cut("sort", crit.so.End())
		cut("reduce", crit.re.End())
		cut("commit", ex.FinishNs)
	case runE != nil:
		// Ran, but without rank phase spans in this recording.
		cut("wait", placed)
		cut("run", ex.FinishNs)
	default:
		cut("wait", ex.FinishNs)
	}
	for i := range ex.Phases {
		if ex.LatencyNs > 0 {
			ex.Phases[i].Pct = 100 * float64(ex.Phases[i].DurNs) / float64(ex.LatencyNs)
		}
		if ex.Bottleneck == "" || ex.Phases[i].DurNs > ex.BottleneckNs {
			ex.Bottleneck = ex.Phases[i].Name
			ex.BottleneckNs = ex.Phases[i].DurNs
		}
	}
	if ex.LatencyNs > 0 {
		ex.BottleneckPct = 100 * float64(ex.BottleneckNs) / float64(ex.LatencyNs)
	}
	return ex
}

// ms renders nanoseconds as fixed-precision milliseconds.
func ms(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e6, 'f', 3, 64)
}

// String renders the explanation as the fixed-format text report served
// by `GET /jobs/{id}/explain?format=text`.
func (ex Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s  state %s  latency %sms  (arrival %sms -> finish %sms)\n",
		ex.Job, ex.State, ms(ex.LatencyNs), ms(ex.ArrivalNs), ms(ex.FinishNs))
	if ex.TraceID != "" {
		fmt.Fprintf(&b, "trace %s\n", ex.TraceID)
	}
	if ex.Ranks > 0 {
		fmt.Fprintf(&b, "gang %d  ranks %d  critical rank %s\n", ex.Gang, ex.Ranks, ex.CriticalRank)
	}
	for _, p := range ex.Phases {
		fmt.Fprintf(&b, "  %-8s %12sms -> %12sms  %12sms  %5.1f%%\n",
			p.Name, ms(p.StartNs), ms(p.EndNs), ms(p.DurNs), p.Pct)
	}
	if ex.Bottleneck != "" {
		fmt.Fprintf(&b, "bottleneck %s  %sms  %.1f%% of latency\n",
			ex.Bottleneck, ms(ex.BottleneckNs), ex.BottleneckPct)
	}
	fmt.Fprintf(&b, "restarts %d  preemptions %d  recoveries %d  speculations %d  steals %d\n",
		ex.Restarts, ex.Preemptions, ex.Recoveries, ex.Speculations, ex.Steals)
	return b.String()
}
