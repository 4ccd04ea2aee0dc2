package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg mirrors the subset of `go list -json` output we consume.
type listedPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path string }
}

// Load runs `go list -deps -json` on the patterns and type-checks every
// non-standard-library package in the result, in dependency order, sharing
// one FileSet. Standard-library imports are resolved by the compiler-free
// source importer, so no pre-built export data is needed. Test files are
// not loaded: the analyzers gate production invariants.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-json=Dir,ImportPath,Standard,GoFiles,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v: %s", patterns, err, stderr.String())
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	done := map[string]*types.Package{}
	imp := &chainImporter{local: done, fallback: std}

	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if lp.Standard {
			continue
		}
		// `go list -deps` emits dependencies before dependents, so by the
		// time a package imports a sibling, the sibling is already in done.
		pkg, err := check(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		done[lp.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and type-checks one package from explicit file names.
func check(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return CheckFiles(fset, imp, path, files)
}

// CheckFiles type-checks already-parsed files as one package.
func CheckFiles(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// chainImporter resolves module-local packages from the already-checked set
// and everything else (the standard library) through the fallback.
type chainImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.fallback.Import(path)
}
