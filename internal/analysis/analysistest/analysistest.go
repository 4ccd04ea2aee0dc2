// Package analysistest runs an analyzer over small testdata packages and
// checks its diagnostics against // want comments, mirroring the x/tools
// package of the same name on the standard library only.
//
// Layout: <testdata>/src/<importpath>/*.go, exactly like the upstream
// convention. Imports are resolved from the testdata tree first (so a test
// package may import a stub with a real-looking path such as
// imitator/internal/hostpar), then from the standard library.
//
// Expectations are written on the offending line:
//
//	c.total += i      // want `writes a captured variable`
//	return uint32(n)  // want "conversion narrows"
//
// Each quoted string is a regexp that must match one diagnostic reported on
// that line; diagnostics with no matching want, and wants with no matching
// diagnostic, fail the test.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"imitator/internal/analysis"
)

// Run loads each named package from testdata/src and checks the analyzer's
// diagnostics against its want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	ld := &loader{
		root:     filepath.Join(testdata, "src"),
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		packages: map[string]*analysis.Package{},
	}
	for _, path := range pkgPaths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, fset, pkg, diags)
	}
}

// loader memoizes testdata packages so stubs shared between test packages
// type-check once.
type loader struct {
	root     string
	fset     *token.FileSet
	std      types.Importer
	packages map[string]*analysis.Package
}

func (l *loader) load(path string) (*analysis.Package, error) {
	if p, ok := l.packages[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := analysis.CheckFiles(l.fset, l, path, files)
	if err != nil {
		return nil, err
	}
	l.packages[path] = pkg
	return pkg, nil
}

// Import resolves testdata-local packages before the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// want is one expectation parsed from a comment.
type want struct {
	file string
	line int
	rx   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// checkWants matches diagnostics against // want comments line by line.
func checkWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[i+len("// want "):], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					rx, err := regexp.Compile(expr)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx, raw: expr})
				}
			}
		}
	}
	for _, d := range diags {
		p := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == p.Filename && w.line == p.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic [%s] %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
