package bench

import (
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRecordingReachesEveryExperiment: with Options.Obs set, every
// experiment that simulates records events, and none prints a different
// byte for it — each recorded report hashes to identity.sum's line for
// the same command without a recorder, which TestIdentity holds to the
// unrecorded run. (Ablation, Faults and Imbalance once left Obs out of
// their jobs' configs, so -trace and -explain came back empty for them.)
func TestRecordingReachesEveryExperiment(t *testing.T) {
	want, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		exp  Experiment
		do   func(io.Writer, Options) error
		o    Options
		out  string
	}
	o := Options{PhysBudget: 4096, Seed: 1}
	var runs []*run
	for _, e := range Experiments {
		switch {
		case e.Name == "table4": // counts source lines; TestTable4Counts covers it
		case e.PerApp == nil:
			runs = append(runs, &run{name: e.Name, exp: e, do: e.Run, o: o})
		default:
			for _, b := range Benchmarks {
				do := func(w io.Writer, o Options) error { return e.PerApp(w, b, o) }
				runs = append(runs, &run{name: e.Name + "/" + b, exp: e, do: do, o: o})
			}
		}
	}
	t.Cleanup(func() {
		got, argvs := map[string]string{}, []string(nil)
		for _, r := range runs {
			argv := gpmrbench(r.exp, r.o, "").argv
			if _, seen := got[argv]; !seen {
				argvs = append(argvs, argv)
			}
			got[argv] += r.out
		}
		for _, argv := range argvs {
			if hash([]byte(got[argv]+"\n")) != want[argv] {
				t.Errorf("recorded report of %q differs from %s's line for it", argv, manifestPath)
			}
		}
	})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			o := r.o
			o.Obs = obs.New()
			var sb strings.Builder
			if err := r.do(&sb, o); err != nil {
				t.Fatal(err)
			}
			r.out = sb.String()
			// (A piece with an empty report ran nothing: weak has no MM set.)
			if r.exp.Name != "table1" && r.out != "" && o.Obs.Len() == 0 {
				t.Error("recorder attached but captured no events")
			}
		})
	}
}
