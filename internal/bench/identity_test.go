package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// testdata/identity.sum pins, by SHA-256, every byte the programs print
// for a fixed set of command lines: one line per cell, `<sha256>  <argv>`,
// where argv is a literal gpmrbench, gpmrsim or `gpmrd -replay` command
// run from this directory, or the name of a file one of them writes with
// -trace. Tier-1 checks the gpmrbench cells at -phys 4096; the identity
// build tag adds the default budget, gpmrsim and the gpmrd replays. A
// change that moves a simulated byte regenerates the manifest with
// -update, and the diff names the cells that moved:
//
//	go test ./internal/bench -run Identity -update
//	go test ./internal/bench -tags identity -run Identity -update
var update = flag.Bool("update", false, "regenerate testdata/identity.sum (only the tier-1 lines unless built with -tags identity)")

// full is set by the identity build tag (identity_full_test.go): the
// manifest's second half, and the full invariance matrices.
var full bool

const manifestPath = "testdata/identity.sum"

// submitTrace is a 200-arrival recording of gpmrd under the benchmark's
// gpmrd_submit mix (16 GPUs, -phys 4096, kinds wo/kmc/sio round-robin,
// four tenants); its replay report carries every job's output digest.
const submitTrace = "testdata/gpmrd_submit.jsonl"

// command is one command line of the manifest: its stdout is the cell
// argv, and the file it writes with -trace the cell trace.
type command struct {
	argv, trace string
	full        bool // in the second half: checked only with -tags identity
	// sameOut names the cell stdout must equal: an equality class, which
	// -update refuses to split.
	sameOut string
	// run writes what the binary writes to stdout, and the -trace file
	// (if any) at tracePath.
	run func(stdout *bytes.Buffer, tracePath string) error
}

// gpmrbench is `gpmrbench -exp <e.Name> …` at o, recorded to trace when
// it is set: Experiments[i].Run, the blank line, then Obs.Finish, as
// cmd/gpmrbench does.
func gpmrbench(e Experiment, o Options, trace string) command {
	argv := fmt.Sprintf("gpmrbench -exp %s -seed %d", e.Name, o.Seed)
	if o.PhysBudget != 1<<16 {
		argv += fmt.Sprintf(" -phys %d", o.PhysBudget)
	}
	if trace != "" {
		argv += " -trace " + trace
	}
	return command{argv: argv, trace: trace, full: o.PhysBudget > 4096,
		run: func(w *bytes.Buffer, tracePath string) error {
			o := o
			if trace != "" {
				o.Obs = obs.New()
			}
			if err := e.Run(w, o); err != nil {
				return err
			}
			w.WriteByte('\n')
			return o.Obs.Finish(w, "gpmrbench", "", tracePath)
		}}
}

// gpmrsim is `gpmrsim -bench <name> -gpus <gpus> -ranks -explain` at the
// command's default size, budget and seed.
func gpmrsim(name string, gpus int) command {
	return command{argv: fmt.Sprintf("gpmrsim -bench %s -gpus %d -ranks -explain", name, gpus), full: true,
		run: func(w *bytes.Buffer, _ string) error {
			return Sim(w, name, 32<<20, gpus, true, false, true, "", Options{PhysBudget: 1 << 16, Seed: 1})
		}}
}

// gpmrdReplay is `gpmrd -replay <submitTrace>`.
func gpmrdReplay() command {
	return command{argv: "gpmrd -replay " + submitTrace, full: true, run: func(w *bytes.Buffer, _ string) error {
		f, err := os.Open(submitTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := serve.ReadTrace(f)
		if err != nil {
			return err
		}
		rep, err := serve.Replay(tr, serve.ReplayOptions{})
		if err != nil {
			return err
		}
		w.WriteString(rep.String())
		return nil
	}}
}

// commands is the manifest, in order. Its first block is the data-path
// acceptance loop: every experiment but table4 (which counts source lines,
// so it moves with every app edit) at seeds 1 and 7, at -phys 4096 and the
// default budget.
func commands() []command {
	var cs []command
	for _, phys := range []int{4096, 1 << 16} {
		for _, seed := range []uint64{1, 7} {
			for _, e := range Experiments {
				if e.Name == "table4" {
					continue
				}
				cs = append(cs, gpmrbench(e, Options{PhysBudget: phys, Seed: seed}, ""))
			}
		}
	}

	// multijob's recording: the report is the unrecorded one.
	multijob := Experiments[slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == "multijob" })]
	traced := gpmrbench(multijob, Options{PhysBudget: 4096, Seed: 1}, "multijob_shards0_w0.json")
	traced.sameOut = "gpmrbench -exp multijob -seed 1 -phys 4096"
	cs = append(cs, traced)
	cs = append(cs, gpmrdReplay())
	return append(cs, gpmrsim("kmc", 8), gpmrsim("wo", 8))
}

// readManifest returns identity.sum as cell name → hash.
func readManifest() (map[string]string, error) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	sums := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 64 {
			return nil, fmt.Errorf("%s: malformed line %q", manifestPath, line)
		}
		sums[name] = sum
	}
	return sums, nil
}

func hash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestIdentity runs every command of the half being checked in-process,
// through the calls its binary makes, and holds each output against
// identity.sum and against its equality class. Commands run side by side;
// each builds its own cluster, engine and recorder.
func TestIdentity(t *testing.T) {
	want, err := readManifest()
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	cmds := commands()
	var mu sync.Mutex
	got, stdout := map[string]string{}, map[string]string{}
	t.Run("run", func(t *testing.T) {
		for _, c := range cmds {
			if c.full && !full {
				continue
			}
			t.Run(c.argv, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				tracePath := ""
				if c.trace != "" {
					tracePath = filepath.Join(t.TempDir(), c.trace)
				}
				if err := c.run(&out, tracePath); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				got[c.argv], stdout[c.argv] = hash(out.Bytes()), out.String()
				if c.trace != "" {
					traced, err := os.ReadFile(tracePath)
					if err != nil {
						t.Fatal(err)
					}
					got[c.trace] = hash(traced)
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	// The classes hold whatever the manifest says.
	for _, c := range cmds {
		a, b := got[c.argv], got[c.sameOut]
		if c.sameOut != "" && a != "" && b != "" && a != b {
			t.Errorf("equality class split: %q prints other bytes than %q", c.argv, c.sameOut)
		}
	}
	checkDocs(t, cmds, stdout)

	var names, lines, moved []string
	for _, c := range cmds {
		names = append(names, c.argv)
		if c.trace != "" {
			names = append(names, c.trace)
		}
	}
	for _, name := range names {
		sum, ran := got[name]
		if !ran {
			sum = want[name] // the other half's line stays as it is
		}
		switch {
		case sum == "":
			t.Errorf("%s has no line for %q; regenerate with -tags identity -update", manifestPath, name)
		case sum != want[name]:
			moved = append(moved, fmt.Sprintf("%s\n\t%s -> %s", name, want[name], sum))
		}
		lines = append(lines, sum+"  "+name+"\n")
	}
	if !*update {
		if len(moved) > 0 {
			t.Errorf("%d cells differ from %s (a change that moves simulated bytes regenerates it with -update and says why in CHANGES.md):\n%s",
				len(moved), manifestPath, strings.Join(moved, "\n"))
		}
		for name := range want {
			if !slices.Contains(names, name) {
				t.Errorf("%s: line %q names no command", manifestPath, name)
			}
		}
		return
	}
	if t.Failed() {
		t.Fatalf("not writing %s", manifestPath)
	}
	if err := os.WriteFile(manifestPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s; %d cells moved:\n%s", manifestPath, len(moved), strings.Join(moved, "\n"))
}

// docBlock matches a fenced block of EXPERIMENTS.md tagged with the
// command it was copied from: "```gpmrbench …" … "```".
var docBlock = regexp.MustCompile("(?ms)^```(gpmrbench [^\n]*)\n(.*?)^```$")

// checkDocs holds every tagged sample-output block of EXPERIMENTS.md to
// the output of its command, when that command ran here: the block must
// appear in the output verbatim.
func checkDocs(t *testing.T, cmds []command, stdout map[string]string) {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range docBlock.FindAllStringSubmatch(string(doc), -1) {
		argv, block := m[1], m[2]
		if !slices.ContainsFunc(cmds, func(c command) bool { return c.argv == argv }) {
			t.Errorf("EXPERIMENTS.md: block tagged %q names no manifest command", argv)
			continue
		}
		if out, ran := stdout[argv]; ran && !strings.Contains(out, block) {
			t.Errorf("EXPERIMENTS.md: the block tagged %q is not in that command's output:\n%s", argv, block)
		}
	}
}
