package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sourceBudget is the non-test line ceiling of every package under
// internal/ (ROADMAP: "line count per package is a tracked number"). A PR
// that grows a package past its ceiling edits the row, in the open; a PR
// that deletes code lowers it, so the next growth shows again.
var sourceBudget = map[string]int{
	"internal/apps/apputil": 50,
	"internal/apps/kmc":     346,
	"internal/apps/lr":      252,
	"internal/apps/mm":      344,
	"internal/apps/sio":     223,
	"internal/apps/wo":      269,
	"internal/bench":        1708,
	"internal/cluster":      218,
	"internal/core":         2792,
	"internal/cudpp":        163,
	"internal/des":          1386,
	"internal/fabric":       161,
	"internal/fault":        176,
	"internal/fleet":        1649,
	"internal/gpu":          541,
	"internal/keyval":       149,
	"internal/mars":         337,
	"internal/mph":          131,
	"internal/obs":          1165,
	"internal/phoenix":      398,
	"internal/sched":        1609,
	"internal/serve":        2120,
	"internal/workload":     156,
}

// flagBudget is the ceiling on flag definitions across cmd/.
const flagBudget = 41

var flagDef = regexp.MustCompile(`\bflag\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Text)(Var)?|Var|Func|BoolFunc)\(`)

func TestSourceBudget(t *testing.T) {
	root := repoRoot(t)
	seen := map[string]bool{}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		lines, err := countPackageLines(path)
		if err != nil || lines == 0 {
			return err
		}
		pkg, _ := filepath.Rel(root, path)
		pkg = filepath.ToSlash(pkg)
		seen[pkg] = true
		ceiling, ok := sourceBudget[pkg]
		switch {
		case !ok:
			t.Errorf("%s: %d non-test lines and no row in sourceBudget", pkg, lines)
		case lines > ceiling:
			t.Errorf("%s: %d non-test lines, ceiling %d — shrink it or raise the row", pkg, lines, ceiling)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range sourceBudget {
		if !seen[pkg] {
			t.Errorf("%s: row in sourceBudget for a package that is gone", pkg)
		}
	}

	flags := 0
	err = filepath.WalkDir(filepath.Join(root, "cmd"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		flags += len(flagDef.FindAll(src, -1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if flags > flagBudget {
		t.Errorf("cmd/ defines %d flags, ceiling %d — remove one or raise flagBudget", flags, flagBudget)
	}
}
