package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// InPackages reports whether the import path is one of pkgs or ends in "/"
// followed by one of them, so the patterns still match a module checked
// out under a longer path (example.com/x/imitator/internal/core).
func InPackages(path string, pkgs []string) bool {
	for _, p := range pkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// ObjectOf resolves an identifier, used or defined, to its variable, or nil
// when it names anything else.
func ObjectOf(info *types.Info, id *ast.Ident) *types.Var {
	if obj, ok := info.Uses[id].(*types.Var); ok {
		return obj
	}
	obj, _ := info.Defs[id].(*types.Var)
	return obj
}

// Diverges reports whether a block leaves normal control flow: it returns,
// breaks, continues, jumps or panics somewhere inside.
func Diverges(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}
