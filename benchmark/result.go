package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// value is one reported number. N is the sample count behind a
// percentile or median, 0 where that has no meaning.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload: untraced runs carry the end-to-end
// metrics, traced runs the per-layer ones.
type result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Traced     bool             `json:"traced"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Unresolved string           `json:"unresolved,omitempty"` // why the run's latencies cannot be trusted
	SimDigest  string           `json:"sim_digest,omitempty"`
	Phases     []phaseResult    `json:"phases,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	Detail     map[string]value `json:"detail,omitempty"` // generator health and highest supportable percentiles
	Errors     []string         `json:"errors,omitempty"`
	DurationS  float64          `json:"duration_s"`
}

func newResult(workload string, seed int64, seconds int, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Correct: true,
		Metrics: map[string]value{}, Detail: map[string]value{}}
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) detail(name, unit string, v float64, n int) {
	r.Detail[name] = value{Value: v, Unit: unit, N: n}
}

// errorf records a failed check; the run is no longer correct.
func (r *result) errorf(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// addPhase folds a timed phase's operation counts into the run's.
func (r *result) addPhase(p phaseResult) {
	r.Phases = append(r.Phases, p)
	r.Attempted += p.Attempted
	r.Failed += p.Failed
}

// unitOf looks a metric's unit up in the definitions.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("benchmark: metric " + name + " is not defined in defs.go")
}

// print writes the run as a block of "name value unit" lines.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %.1f s\n", r.Workload, r.Seed, kind, r.DurationS)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "   phase %-12s attempted %6d  failed %4d  wall %8.3f s", p.Name, p.Attempted, p.Failed, p.WallS)
		if p.LateP95Ms != 0 {
			fmt.Fprintf(w, "  generator late p95 %.3f ms", p.LateP95Ms)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.SimDigest != "" {
		fmt.Fprintf(w, "   sim_digest %s\n", r.SimDigest)
	}
	if r.Unresolved != "" {
		fmt.Fprintf(w, "   UNRESOLVED: %s\n", r.Unresolved)
	}
	printValues(w, r.Metrics, metricOrder(r.Traced))
	if len(r.Detail) > 0 {
		names := make([]string, 0, len(r.Detail))
		for n := range r.Detail {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "   -- detail")
		printValues(w, r.Detail, names)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ERROR: %s\n", e)
	}
}

func printValues(w io.Writer, vals map[string]value, order []string) {
	for _, name := range order {
		v, ok := vals[name]
		if !ok {
			continue
		}
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "   %-36s %16.6g %s%s\n", name, v.Value, v.Unit, n)
	}
}

// metricOrder lists the metric names a run of that kind reports.
func metricOrder(traced bool) []string {
	var names []string
	if traced {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	return names
}

// contractLine is the last line of standard output when one workload is
// run: exactly the keys the driver reads.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for n, v := range r.Metrics {
		out.Metrics[n] = mv{v.Value, v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(data)
}

// checkComplete fails the run when a metric it must report is missing.
func (r *result) checkComplete() {
	for _, name := range metricOrder(r.Traced) {
		if _, ok := r.Metrics[name]; !ok {
			r.errorf("metric %s was not measured", name)
		}
	}
}

// stamp records where and on what a results file was measured.
type stamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func newStamp() stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Time: time.Now().UTC().Format(time.RFC3339)}
}

// resultsFile is what -json writes and -compare reads.
type resultsFile struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*result `json:"runs"`
}

func writeResults(path string, runs []*result) error {
	data, err := json.MarshalIndent(resultsFile{Stamp: newStamp(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
