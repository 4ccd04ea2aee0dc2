// Command imitatorvet runs the repository's static analyzer, narrowing (see
// DESIGN.md "Static invariants"), over Go packages, which it loads and
// type-checks itself:
//
//	go run ./cmd/imitatorvet ./...
//
// Each diagnostic is printed to stderr as file:line:col: [analyzer] message.
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"fmt"
	"os"

	"imitator/internal/analysis"
	"imitator/internal/analysis/bounds"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imitatorvet:", err)
		os.Exit(1)
	}
	analyzers := []*analysis.Analyzer{bounds.Narrowing()}
	total := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imitatorvet:", err)
			os.Exit(1)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		total += len(diags)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "imitatorvet: %d diagnostic(s)\n", total)
		os.Exit(2)
	}
}
