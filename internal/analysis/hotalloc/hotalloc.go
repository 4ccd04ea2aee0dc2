// Package hotalloc statically guards the allocs/superstep ≈ 0 invariant
// that cmd/bench can only probe dynamically. The steady-state superstep hot
// path is declared with an annotation grammar:
//
//	//imitator:hotpath
//	func (c *Cluster[V, A]) superstepEdgeCut() error { ... }
//
// on a function, or on a struct type whose func-typed fields hold the
// pre-bound phase functions (phaseFns): every func literal assigned to a
// field of an annotated struct is a hot root. From the roots
// the analyzer walks the package-local static call graph; inside any hot
// function it reports the allocation shapes that defeat the PR-2 zero-alloc
// discipline:
//
//   - make() / new() — allocate per call; preallocate in setup or pool.
//   - go statements — spawn (and allocate) a goroutine per call; the
//     phase pools exist so steady state never does this.
//   - func literals — closures allocate when they capture; hot phases are
//     pre-bound once (bindPhases) precisely to avoid this. Immediately
//     invoked literals are exempt (they do not escape).
//   - append to a slice that starts nil in the same function — grows a
//     fresh backing array every call (appends to pooled/retained buffers
//     are amortized-zero and are not flagged).
//   - fmt calls, non-constant string concatenation, string(bytes)
//     conversions — each allocates.
//   - passing a concrete value where a parameter is an interface — boxes.
//
// Dynamic calls (through interfaces or stored func values) are not
// traversed; the annotation on the pre-bound body structs is what puts
// their literals in scope. Exceptions carry //imitator:hotalloc-ok <reason>
// — cold sub-paths (lazy one-time init, recovery-only rebuilds) are the
// expected use.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"imitator/internal/analysis"
)

// Annotation marks a hot-path root; unlike suppression directives it takes
// no reason (it declares scope, it does not excuse a finding).
const Annotation = "//imitator:hotpath"

// New returns the hotalloc analyzer.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name:      "hotalloc",
		Directive: "hotalloc",
		// hotpath is the scope marker, not a suppression; declaring it keeps
		// the unknown-directive check from flagging annotated hot roots.
		Annotations: []string{"hotpath"},
		Doc:         "forbid per-call heap allocation inside the annotated superstep hot path",
	}
	a.Run = run
	return a
}

func run(pass *analysis.Pass) error {
	// 1. Collect annotated roots: functions, and struct types whose
	// func-typed fields receive pre-bound bodies.
	var rootDecls []*ast.FuncDecl
	hotStructs := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if hasAnnotation(d.Doc) {
					rootDecls = append(rootDecls, d)
				}
			case *ast.GenDecl:
				declWide := hasAnnotation(d.Doc)
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if declWide || hasAnnotation(ts.Doc) || hasAnnotation(ts.Comment) {
						if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
							hotStructs[tn] = true
						}
					}
				}
			}
		}
	}

	// 2. Root literals: func literals assigned to fields of hot structs
	// (c.phases.commit = func...{}) or set in their composite literals.
	var rootLits []*ast.FuncLit
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					lit, ok := n.Rhs[i].(*ast.FuncLit)
					if !ok {
						continue
					}
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && isHotField(pass, hotStructs, sel) {
						rootLits = append(rootLits, lit)
					}
				}
			case *ast.CompositeLit:
				if !isHotStructType(pass, hotStructs, n) {
					return true
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if lit, ok := kv.Value.(*ast.FuncLit); ok {
							rootLits = append(rootLits, lit)
						}
					}
				}
			}
			return true
		})
	}

	if len(rootDecls) == 0 && len(rootLits) == 0 {
		return nil
	}

	// 3. Static call graph over package functions; everything reachable
	// from a root body is hot.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	hot := map[*types.Func]bool{}
	var visit func(body *ast.BlockStmt)
	visit = func(body *ast.BlockStmt) {
		for _, callee := range localCallees(pass, body) {
			if hot[callee] {
				continue
			}
			hot[callee] = true
			if fd := decls[callee]; fd != nil {
				visit(fd.Body)
			}
		}
	}
	for _, fd := range rootDecls {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			hot[fn] = true
		}
		visit(fd.Body)
	}
	for _, lit := range rootLits {
		visit(lit.Body)
	}

	// 4. Check every hot region.
	seen := map[*ast.BlockStmt]bool{}
	check := func(name string, body *ast.BlockStmt) {
		if !seen[body] {
			seen[body] = true
			checkBody(pass, name, body)
		}
	}
	for _, fd := range rootDecls {
		check(fd.Name.Name, fd.Body)
	}
	for _, lit := range rootLits {
		check("pre-bound phase body", lit.Body)
	}
	for fn, fd := range decls {
		if hot[fn] {
			check(fd.Name.Name, fd.Body)
		}
	}
	return nil
}

func hasAnnotation(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == Annotation || strings.HasPrefix(c.Text, Annotation+" ") {
			return true
		}
	}
	return false
}

// isHotField reports whether sel selects a field of an annotated struct.
// Matching goes through the receiver type's generic origin, so instantiated
// phaseFns[V, A] fields match the annotated declaration.
func isHotField(pass *analysis.Pass, hotStructs map[*types.TypeName]bool, sel *ast.SelectorExpr) bool {
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return false
	}
	return isHotType(hotStructs, typeOf(pass, sel.X))
}

func isHotStructType(pass *analysis.Pass, hotStructs map[*types.TypeName]bool, cl *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return false
	}
	return isHotType(hotStructs, tv.Type)
}

func isHotType(hotStructs map[*types.TypeName]bool, t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return hotStructs[named.Origin().Obj()]
}

// localCallees returns the package-local functions a body calls statically.
func localCallees(pass *analysis.Pass, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		case *ast.IndexExpr: // generic instantiation f[T](...)
			if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
				id = base
			}
		default:
			return true
		}
		if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
			// Methods selected on an instantiated generic receiver
			// (c.runPhase on *Cluster[V, A]) resolve to instantiated
			// objects; Origin maps them back to the declaration.
			fn = fn.Origin()
			if fn.Pkg() == pass.Pkg {
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// checkBody reports allocation shapes inside one hot region.
func checkBody(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	hint := fmt.Sprintf(" (hot via %s); hoist to setup, pool the buffer, or annotate //imitator:hotalloc-ok <reason>", name)

	// Fresh locals: slices declared with no backing in this region; append
	// to them grows a new array every call.
	fresh := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		gd, ok := n.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, nm := range vs.Names {
				if v, ok := pass.TypesInfo.Defs[nm].(*types.Var); ok {
					if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
						fresh[v] = true
					}
				}
			}
		}
		return true
	})

	// Immediately invoked literals do not escape.
	invoked := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				invoked[lit] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hot path: go statement spawns and allocates a goroutine per call%s", hint)
		case *ast.FuncLit:
			if !invoked[n] {
				pass.Reportf(n.Pos(), "hot path: func literal allocates a closure per call; pre-bind it once like bindPhases does%s", hint)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass, n) && !isConstant(pass, n) {
				pass.Reportf(n.Pos(), "hot path: string concatenation allocates%s", hint)
			}
		case *ast.CallExpr:
			checkCall(pass, n, fresh, hint)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, fresh map[*types.Var]bool, hint string) {
	// Conversions: string(bytes) copies.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isString(tv.Type) && !isString(typeOf(pass, call.Args[0])) && !isConstant(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "hot path: string conversion copies and allocates%s", hint)
		}
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "hot path: make allocates per call%s", hint)
			case "new":
				pass.Reportf(call.Pos(), "hot path: new allocates per call%s", hint)
			case "append":
				if len(call.Args) > 0 {
					if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && fresh[v] {
							pass.Reportf(call.Pos(), "hot path: append to a slice that starts nil grows a fresh backing array every call%s", hint)
						}
					}
				}
			}
			return
		}
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "hot path: fmt.%s allocates (formatting boxes its operands)%s", fun.Sel.Name, hint)
				return
			}
		}
	}

	checkBoxing(pass, call, hint)
}

// checkBoxing flags concrete values passed where the callee takes an
// interface: the value is heap-boxed at the call.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, hint string) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice itself
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // generic params are concretized at instantiation
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := typeOf(pass, arg)
		if at == nil || types.IsInterface(at) || isNil(pass, arg) {
			continue
		}
		pass.Reportf(arg.Pos(), "hot path: passing concrete %s as interface %s boxes and allocates%s",
			types.TypeString(at, types.RelativeTo(pass.Pkg)), types.TypeString(pt, types.RelativeTo(pass.Pkg)), hint)
	}
}

func typeOf(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringExpr(pass *analysis.Pass, e ast.Expr) bool {
	return isString(typeOf(pass, e))
}

func isConstant(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
