// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, built on the standard library
// only (go/ast, go/types, go/importer). The container this repository grows
// in has no module cache and no network, so the real x/tools packages are
// unavailable; this package mirrors their API shape (Analyzer, Pass,
// Diagnostic) closely enough that the suite can be ported to the real
// framework by swapping import paths if x/tools ever becomes available.
//
// The suite's three analyzers live in subpackages and are wired together by
// cmd/imitatorvet: hostrace in its own, and wirebounds and narrowing as two
// rules of one bound-check taint engine in bounds. Helpers they share
// (InPackages, ObjectOf, Diverges) live here. See DESIGN.md ("Static
// invariants") for the contracts they enforce.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("hostrace").
	Name string
	// Doc is the analyzer's one-paragraph contract.
	Doc string
	// Directive is the suppression key: a comment of the form
	//
	//	//imitator:<Directive>-ok <reason>
	//
	// on (or immediately above) a flagged line suppresses this analyzer's
	// diagnostics there. Empty means the analyzer cannot be suppressed.
	Directive string
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

// Run executes the analyzers over one loaded package, applies suppression
// directives, and returns the surviving diagnostics sorted by position.
// Malformed directives (missing reason) are themselves reported. Load never
// reads _test.go files: the invariants gate production code.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	files := pkg.Files
	dirs := collectDirectives(pkg.Fset, files)
	var out []Diagnostic
	for _, d := range dirs {
		if d.reason == "" {
			out = append(out, Diagnostic{
				Pos:      d.pos,
				Message:  fmt.Sprintf("imitator:%s-ok directive requires a reason", d.key),
				Analyzer: "directive",
			})
		}
	}
	out = append(out, checkUnknownKeys(pkg.Fset, files, analyzers)...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diags {
			if a.Directive != "" && suppressed(dirs, pkg.Fset, a.Directive, d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// checkUnknownKeys flags //imitator: comments whose key is not a
// suppression key of a running analyzer: a typo like
// //imitator:hostrace-okay would otherwise silently suppress nothing and rot
// in place.
func checkUnknownKeys(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		if a.Directive != "" {
			known[a.Directive+"-ok"] = true
			names = append(names, a.Directive+"-ok")
		}
	}
	sort.Strings(names)
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				key, _, _ := strings.Cut(strings.TrimPrefix(c.Text, directivePrefix), " ")
				if known[key] {
					continue
				}
				out = append(out, Diagnostic{
					Pos:      c.Pos(),
					Message:  fmt.Sprintf("unknown directive imitator:%s; known keys: %s", key, strings.Join(names, ", ")),
					Analyzer: "directive",
				})
			}
		}
	}
	return out
}

// directive is one parsed //imitator:<key>-ok comment.
type directive struct {
	pos    token.Pos
	file   string
	line   int  // line the comment sits on
	own    bool // comment is alone on its line (suppresses the next line too)
	key    string
	reason string
}

const directivePrefix = "//imitator:"

// collectDirectives scans every comment in the package for suppression
// directives. A directive written at the end of a code line suppresses that
// line; a directive on its own line suppresses the following line as well
// (the conventional "annotation above the statement" placement).
func collectDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var out []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, directivePrefix)
				key, reason, _ := strings.Cut(rest, " ")
				if !strings.HasSuffix(key, "-ok") {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, directive{
					pos:    c.Pos(),
					file:   pos.Filename,
					line:   pos.Line,
					own:    pos.Column == 1 || startsLine(fset, f, c),
					key:    strings.TrimSuffix(key, "-ok"),
					reason: strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// startsLine reports whether comment c is the first token on its line.
func startsLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	first := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !first {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Filename == cpos.Filename && p.Line == cpos.Line && p.Column < cpos.Column {
			first = false
		}
		return first
	})
	return first
}

// suppressed reports whether a diagnostic at pos is covered by a directive
// with the given key: same line, or the line after an own-line directive.
func suppressed(dirs []directive, fset *token.FileSet, key string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, d := range dirs {
		if d.key != key || d.reason == "" || d.file != p.Filename {
			continue
		}
		if d.line == p.Line {
			return true
		}
		if d.own && d.line+1 == p.Line {
			return true
		}
	}
	return false
}
