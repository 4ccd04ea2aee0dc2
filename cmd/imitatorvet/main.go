// Command imitatorvet runs the repository's custom static analyzers —
// hostrace, wirebounds and narrowing, where wirebounds and narrowing are two
// rules of one taint engine in internal/analysis/bounds (see DESIGN.md
// "Static invariants") — over Go packages, which it loads and type-checks
// itself:
//
//	go run ./cmd/imitatorvet ./...
//	imitatorvet -json ./...
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"

	"imitator/internal/analysis"
	"imitator/internal/analysis/bounds"
	"imitator/internal/analysis/hostrace"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hostrace.New(),
		bounds.Wirebounds(),
		bounds.Narrowing(),
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main minus process concerns: it loads the packages via the go
// command and analyzes all of them, writing JSON to out so tests can assert
// its shape.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("imitatorvet", flag.ContinueOnError)
	jsonOutFlag := fs.Bool("json", false, "emit diagnostics as JSON")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	jsonOut, patterns := *jsonOutFlag, fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imitatorvet:", err)
		return 1
	}
	total := 0
	byPkg := map[string]map[string][]jsonDiag{}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, "imitatorvet:", err)
			return 1
		}
		total += len(diags)
		emit(pkg.Fset, pkg.Path, diags, jsonOut, byPkg)
	}
	if jsonOut {
		printJSON(out, byPkg)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "imitatorvet: %d diagnostic(s)\n", total)
		return 2
	}
	return 0
}

// jsonDiag matches the go vet JSON diagnostic schema.
type jsonDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// emit prints diagnostics (plain mode) or accumulates them (JSON mode).
func emit(fset *token.FileSet, pkgID string, diags []analysis.Diagnostic, jsonOut bool, byPkg map[string]map[string][]jsonDiag) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if jsonOut {
			m := byPkg[pkgID]
			if m == nil {
				m = map[string][]jsonDiag{}
				byPkg[pkgID] = m
			}
			m[d.Analyzer] = append(m[d.Analyzer], jsonDiag{Posn: pos.String(), Message: d.Message})
		} else {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
	}
}

func printJSON(out io.Writer, byPkg map[string]map[string][]jsonDiag) {
	keys := make([]string, 0, len(byPkg))
	for k := range byPkg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make(map[string]map[string][]jsonDiag, len(byPkg))
	for _, k := range keys {
		ordered[k] = byPkg[k]
	}
	data, _ := json.MarshalIndent(ordered, "", "\t")
	fmt.Fprintln(out, string(data))
}
