// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, built on the standard library
// only (go/ast, go/types, go/importer). The container this repository grows
// in has no module cache and no network, so the real x/tools packages are
// unavailable; this package mirrors their API shape (Analyzer, Pass,
// Diagnostic) closely enough that the suite can be ported to the real
// framework by swapping import paths if x/tools ever becomes available.
//
// The suite's one analyzer, narrowing, lives in the bounds subpackage and is
// run by cmd/imitatorvet; the helpers it uses (InPackages, ObjectOf,
// Diverges) live here. See DESIGN.md ("Static invariants") for the contract
// it enforces. It takes no suppression directive: code it flags is
// rewritten until it holds.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("narrowing").
	Name string
	// Doc is the analyzer's one-paragraph contract.
	Doc string
	// Run performs the check on one package, reporting via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned in the package's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Run executes the analyzers over one loaded package and returns their
// diagnostics sorted by position. Load never reads _test.go files: the
// invariants gate production code.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
