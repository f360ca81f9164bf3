package main

import (
	"fmt"
	"io"
)

// -compare a.json b.json holds the runs in b against the runs in a: per
// workload and end-to-end metric it prints both medians, the ratio with
// its base, the bound, and a verdict.
//
//	ok          b's median is no worse than a's by more than the bound
//	worse       it is, and the spread does not explain it
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound (and b's runs are not all better than all of a's),
//	            or a run marked itself unresolved
//
// The exit code is 1 when any row is worse.

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// compareRow is one workload × metric comparison.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	Change           float64 // how much worse b is, as a share of a (negative = better)
	Spread           float64 // the wider of the two quartile spreads
	Bound            float64
	Verdict          verdict
}

// judge compares b's samples of one metric against a's.
func judge(m metricDef, a, b []float64, flagged bool) compareRow {
	row := compareRow{Metric: m.Name, A: median(a), B: median(b), Bound: m.Bound,
		Spread: max(quartileSpread(a), quartileSpread(b))}
	if row.A != 0 {
		row.Change = (row.B - row.A) / row.A
		if m.Better == higher {
			row.Change = -row.Change
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (m.Better == lower && y >= x) || (m.Better == higher && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case (row.Spread > m.Bound || flagged) && !allBetter:
		row.Verdict = verdictUnresolved
	case row.Change > m.Bound:
		row.Verdict = verdictWorse
	default:
		row.Verdict = verdictOK
	}
	return row
}

// compareRuns judges every workload and end-to-end metric present in
// both sets of untraced runs.
func compareRuns(a, b []*result) []compareRow {
	samples := func(runs []*result, workload, metric string) (xs []float64, flagged bool) {
		for _, r := range runs {
			if r.Workload != workload || r.Traced {
				continue
			}
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
				flagged = flagged || r.Unresolved != ""
			}
		}
		return xs, flagged
	}
	var rows []compareRow
	for _, w := range workloads {
		for _, m := range endToEnd {
			xa, fa := samples(a, w.Name, m.Name)
			xb, fb := samples(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := judge(m, xa, xb, fa || fb)
			row.Workload = w.Name
			rows = append(rows, row)
		}
	}
	return rows
}

// compareFiles prints the comparison of two results files and returns
// the exit code.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var files [2]*resultsFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintf(w, "benchmark: %v\n", err)
			return 2
		}
		fmt.Fprintf(w, "%c: %s  commit %s  %d cpu  %s\n", 'a'+i, path, f.Stamp.Commit, f.Stamp.NumCPU, f.Stamp.GoVersion)
		files[i] = f
	}
	a, b := files[0].Runs, files[1].Runs
	return printComparison(w, compareRuns(a, b), digests(a), digests(b))
}

// digests maps workload and seed to the simulated digest of a run.
func digests(runs []*result) map[string]string {
	out := map[string]string{}
	for _, r := range runs {
		if r.SimDigest != "" && !r.Traced {
			out[fmt.Sprintf("%s seed %d", r.Workload, r.Seed)] = r.SimDigest
		}
	}
	return out
}

func printComparison(w io.Writer, rows []compareRow, da, db map[string]string) int {
	code := 0
	if len(rows) == 0 {
		fmt.Fprintln(w, "no workload has untraced runs in both files")
		return 2
	}
	fmt.Fprintf(w, "%-14s %-15s %14s %14s %22s %7s %8s  %s\n",
		"workload", "metric", "median a", "median b", "b worse by (base a)", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-15s %14.6g %14.6g %+21.2f%% %6.0f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.Bound, 100*r.Spread, r.Verdict)
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	for key, d := range da {
		if other, ok := db[key]; ok && other != d {
			fmt.Fprintf(w, "sim_digest of %s differs: the simulated results changed\n", key)
			code = 1
		}
	}
	return code
}
