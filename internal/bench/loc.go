package bench

import (
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// LoCRow is one Table 4 column: source lines for a benchmark under each
// framework. The paper counted benchmark code excluding setup; we count
// our Go implementations the same way (GPMR: the app package; Phoenix and
// Mars: the app's adapter declarations), alongside the paper's numbers
// for its C++/CUDA code.
type LoCRow struct {
	Bench                              string
	Phoenix, Mars, GPMR                int
	PaperPhoenix, PaperMars, PaperGPMR int
}

// Table4 counts benchmark source lines. root is the repository root.
func Table4(root string) ([]LoCRow, error) {
	var rows []LoCRow
	for _, b := range paperColumns {
		a, _ := appNamed(b)
		if a.mars.wall == nil {
			continue
		}
		gp, err := countPackageLines(filepath.Join(root, "internal", "apps", b))
		if err != nil {
			return nil, err
		}
		ph, err := countDeclLines(filepath.Join(root, "internal", "phoenix", "apps.go"), b)
		if err != nil {
			return nil, err
		}
		ma, err := countDeclLines(filepath.Join(root, "internal", "mars", "apps.go"), b)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LoCRow{Bench: b, Phoenix: ph, Mars: ma, GPMR: gp,
			PaperPhoenix: a.paper4[0], PaperMars: a.paper4[1], PaperGPMR: a.paper4[2]})
	}
	return rows, nil
}

// findRepoRoot walks up from the working directory to the directory whose
// go.mod declares module repro, so Table 4 counts the same files from
// anywhere inside the checkout.
func findRepoRoot() (string, error) {
	start, err := os.Getwd()
	for dir := start; err == nil; dir = filepath.Dir(dir) {
		if mod, _ := os.ReadFile(filepath.Join(dir, "go.mod")); strings.HasPrefix(string(mod), "module repro\n") {
			return dir, nil
		}
		if dir == filepath.Dir(dir) {
			err = fmt.Errorf("bench: no go.mod of module repro at or above %s", start)
		}
	}
	return "", err
}

// countPackageLines counts non-test Go lines in a package directory.
func countPackageLines(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		total += strings.Count(string(data), "\n")
	}
	return total, nil
}

// countDeclLines counts the lines of top-level declarations in file whose
// names start with the benchmark name (case-insensitive), e.g. MM, KMC.
func countDeclLines(file, benchName string) (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return 0, err
	}
	lines := strings.Split(string(src), "\n")
	prefix := strings.ToUpper(benchName)
	total := 0
	for _, d := range f.Decls {
		pos := fset.Position(d.Pos())
		end := fset.Position(d.End())
		first := lines[pos.Line-1]
		if strings.Contains(first, "func "+prefix) {
			total += end.Line - pos.Line + 1
		}
	}
	return total, nil
}

// RenderTable4 writes the LoC comparison.
func RenderTable4(w io.Writer, rows []LoCRow) {
	fmt.Fprintln(w, "Table 4 — benchmark source lines (ours in Go; paper's C++/CUDA in parens)")
	fmt.Fprintf(w, "%-6s %16s %16s %16s\n", "bench", "Phoenix", "Mars", "GPMR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10d (%3d) %10d (%3d) %10d (%3d)\n",
			r.Bench, r.Phoenix, r.PaperPhoenix, r.Mars, r.PaperMars, r.GPMR, r.PaperGPMR)
	}
}
