package bench

import (
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// registryOpts are the options testdata/registry.golden was generated
// at: `gpmrbench -exp <name> -phys 2048 -seed 1`, one experiment after
// another in registry order, on the commit before the registry existed.
func registryOpts() Options { return Options{PhysBudget: 2048, Seed: 1} }

// piece is an independently runnable part of the registry: a whole
// experiment, or one benchmark of a per-app experiment. The tests run
// pieces in parallel (fig3 alone is half the registry's cost); in order,
// their reports concatenate to gpmrbench's output.
type piece struct {
	name      string
	simulates bool
	report    func(o Options) (string, error)
	// plain memoises the report at registryOpts with no recorder: the
	// golden test and the recording test both need it.
	plain func() (string, error)
}

// pieces lists the registry without table4, which counts source lines
// under the working directory instead of simulating (TestTable4Counts
// covers it).
var pieces = func() []*piece {
	var ps []*piece
	add := func(name string, e Experiment, run func(io.Writer, Options) error, last bool) {
		p := &piece{name: name, simulates: e.Name != "table1"}
		p.report = func(o Options) (string, error) {
			var sb strings.Builder
			err := run(&sb, o)
			if last {
				sb.WriteByte('\n') // gpmrbench ends every experiment with a blank line
			}
			return sb.String(), err
		}
		p.plain = sync.OnceValues(func() (string, error) { return p.report(registryOpts()) })
		ps = append(ps, p)
	}
	for _, e := range Experiments {
		switch {
		case e.Name == "table4":
		case e.PerApp == nil:
			add(e.Name, e, e.Run, true)
		default:
			for i, b := range Benchmarks {
				add(e.Name+"/"+b, e, func(w io.Writer, o Options) error { return e.PerApp(w, b, o) }, i == len(Benchmarks)-1)
			}
		}
	}
	return ps
}()

// TestRegistryGolden is the harness refactor's contract: every rendered
// byte of every benchmarked experiment equals what the hand-written
// per-experiment code printed before the app table, the exclusive-run
// seam, the arrival helper and the registry replaced it.
func TestRegistryGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/registry.golden")
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]string, len(pieces))
	t.Run("run", func(t *testing.T) {
		for i, p := range pieces {
			t.Run(p.name, func(t *testing.T) {
				t.Parallel()
				var err error
				if reports[i], err = p.plain(); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
	got := strings.Join(reports, "")
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("registry output diverges from testdata/registry.golden at line %d:\n got %q\nwant %q",
				i+1, gl[i], append(wl, "<EOF>")[min(i, len(wl))])
		}
	}
	t.Fatalf("registry output stops at line %d of %d of testdata/registry.golden", len(gl), len(wl))
}

// TestRecordingReachesEveryExperiment: with Options.Obs set, every
// experiment that simulates records events, and none renders a different
// byte for it. (Ablation, Faults and Imbalance used to copy Workers into
// their jobs' configs but not Obs, so -trace and -explain came back empty
// for them.) multijob runs a second time on the sharded scheduler, whose
// recording path is its own.
func TestRecordingReachesEveryExperiment(t *testing.T) {
	check := func(name string, p *piece, shards int) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o, plain := registryOpts(), p.plain
			if o.Shards = shards; shards != 0 {
				plain = func() (string, error) { return p.report(o) }
			}
			want, err := plain()
			if err != nil {
				t.Fatal(err)
			}
			o.Obs = obs.New()
			got, err := p.report(o)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("report with a recorder attached differs from the report without:\n--- off\n%s--- on\n%s", want, got)
			}
			// (A piece with an empty report ran nothing: weak has no MM set.)
			if p.simulates && want != "" && o.Obs.Len() == 0 {
				t.Error("recorder attached but captured no events")
			}
		})
	}
	for _, p := range pieces {
		check(p.name, p, 0)
		if p.name == "multijob" {
			check("multijob/sharded", p, 2)
		}
	}
}
