// Package bounds holds the narrowing analyzer. It guards sizes in the
// packages that build the compact SoA/CSR layout (graph, gen, partition,
// ftlog): a value derived from len() or cap() — an element count, a byte
// length, a loop index bounded by one — is tainted, and converting it to a
// strictly narrower integer type (int → int32, int → uint32, ...) with no
// dominating bound check is reported:
//
//	if len(keys) > math.MaxInt32 {
//		panic("csr: edge count overflows int32")
//	}
//	for i, k := range keys {
//		idx[cur[k]] = int32(i) // ok: i is bounded by the checked len
//	}
//
// At the paper's Twitter scale (1.47B edges) the edge count sits within 1.5×
// of int32 overflow: an unchecked int32(i) over the edge array wraps
// negative and corrupts the CSR silently instead of failing loudly. No test
// runs a graph that large, so this check has no run-time stand-in.
//
// Taint flows through assignment, arithmetic, conversions, loop induction
// variables, range keys and container or field writes. It clears on a
// comparison of the value (or of len(container)) inside an if whose body
// diverges — ordered (<, <=, >, >=) or !=; `n == 0` rules out zero and caps
// nothing — and on a reduction: x % m, x & mask, min().
package bounds

import (
	"go/ast"
	"go/token"
	"go/types"

	"imitator/internal/analysis"
)

// NarrowingPackages are the import paths whose narrowing conversions feed
// the SoA/CSR layout.
var NarrowingPackages = []string{
	"imitator/internal/graph",
	"imitator/internal/gen",
	"imitator/internal/partition",
	"imitator/internal/ftlog",
}

// Narrowing returns the analyzer that bounds len/cap-derived sizes before
// they are narrowed, in NarrowingPackages.
func Narrowing() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "narrowing",
		Doc:  "require a dominating bound check before narrowing a len/cap-derived value to a smaller integer type",
		Run: func(pass *analysis.Pass) error {
			if !analysis.InPackages(pass.Pkg.Path(), NarrowingPackages) {
				return nil
			}
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
						w := &walker{pass: pass, tainted: map[*types.Var]bool{}, bounded: map[*types.Var]bool{}}
						w.walkStmts(fd.Body.List)
					}
				}
			}
			return nil
		},
	}
}

// checkConversion reports an integer conversion that narrows a tainted
// value.
func (w *walker) checkConversion(call *ast.CallExpr) {
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 || !w.narrows(tv.Type, call.Args[0]) || !w.taintedExpr(call.Args[0]) {
		return
	}
	w.pass.Reportf(call.Pos(),
		"%s conversion narrows a len/cap-derived value and can overflow silently at scale; add a dominating bound check (compare it or len(...) against the target's max first)",
		types.TypeString(tv.Type, types.RelativeTo(w.pass.Pkg)))
}

// amd64 models the 64-bit targets the scale argument is about; on them a
// plain int is 8 bytes, so int→int32 is a narrowing.
var amd64 = types.SizesFor("gc", "amd64")

// narrows reports whether converting arg to target loses integer width.
func (w *walker) narrows(target types.Type, arg ast.Expr) bool {
	tb, ok := target.Underlying().(*types.Basic)
	if !ok || tb.Info()&types.IsInteger == 0 {
		return false
	}
	av, ok := w.pass.TypesInfo.Types[arg]
	if !ok || av.Value != nil { // constant-folded: the compiler checks the range
		return false
	}
	ab, ok := av.Type.Underlying().(*types.Basic)
	return ok && ab.Info()&types.IsInteger != 0 && amd64.Sizeof(tb) < amd64.Sizeof(ab)
}

// walker interprets one function body in statement order. Branch bodies
// share the state: taint acquired anywhere persists, and so does a bound
// established in a branch (deliberately permissive — this is a vet
// heuristic, and the dominating-bound idiom here is straight-line).
type walker struct {
	pass    *analysis.Pass
	tainted map[*types.Var]bool
	// bounded marks containers of known size: built by make() with clean
	// sizes or a literal, or whose len was compared in a diverging if. After
	// `if len(keys) > limit { return err }`, len(keys) and range keys over
	// keys are clean.
	bounded map[*types.Var]bool
}

func (w *walker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

// walkStmt interprets one statement; a nil statement is a no-op.
func (w *walker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.checkExprs(s.Rhs)
		if len(s.Lhs) != len(s.Rhs) {
			break
		}
		for i, lhs := range s.Lhs {
			t := w.taintedExpr(s.Rhs[i])
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				t = t || w.taintedExpr(lhs) // op-assign keeps existing taint
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				w.assign(id, t, w.boundedExpr(s.Rhs[i]))
			} else if obj := rootObject(w.pass.TypesInfo, lhs); t && obj != nil {
				// A tainted element or field write taints its container, so
				// taint survives round-trips through slices and structs
				// (bounds[s] = [2]int{lo, hi}; ... bounds[s][1]).
				w.tainted[obj] = true
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.checkExprs(vs.Values)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.assign(name, w.taintedExpr(vs.Values[i]), w.boundedExpr(vs.Values[i]))
						}
					}
				}
			}
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.checkExpr(s.Cond)
		w.walkStmts(s.Body.List)
		w.walkStmt(s.Else)
		if analysis.Diverges(s.Body) {
			w.clearCompared(s.Cond)
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		if s.Cond != nil {
			w.checkExpr(s.Cond)
			w.taintInduction(s.Cond)
		}
		w.walkStmts(s.Body.List)
		w.walkStmt(s.Post)
	case *ast.RangeStmt:
		w.checkExpr(s.X)
		key := w.rangeKeyTainted(s.X)
		if id, ok := s.Key.(*ast.Ident); ok {
			w.assign(id, key, false)
		}
		if id, ok := s.Value.(*ast.Ident); ok {
			w.assign(id, false, false) // element values are data, not sizes
		}
		w.walkStmts(s.Body.List)
	case *ast.ExprStmt:
		w.checkExpr(s.X)
	case *ast.GoStmt:
		w.checkExpr(s.Call)
	case *ast.DeferStmt:
		w.checkExpr(s.Call)
	case *ast.ReturnStmt:
		w.checkExprs(s.Results)
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Body)
	case *ast.SelectStmt:
		w.walkStmt(s.Body)
	case *ast.CaseClause:
		w.walkStmts(s.Body)
	case *ast.CommClause:
		w.walkStmts(s.Body)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

func (w *walker) assign(id *ast.Ident, tainted, bounded bool) {
	if obj := analysis.ObjectOf(w.pass.TypesInfo, id); obj != nil {
		w.tainted[obj] = tainted
		w.bounded[obj] = bounded
	}
}

// taintInduction taints a loop variable compared against a tainted bound:
// `for i := 0; i < n; i++` taints i when n is.
func (w *walker) taintInduction(cond ast.Expr) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || !isComparison(be.Op) {
		return
	}
	if id, ok := ast.Unparen(be.X).(*ast.Ident); ok && w.taintedExpr(be.Y) {
		w.assign(id, true, false)
	}
	if id, ok := ast.Unparen(be.Y).(*ast.Ident); ok && w.taintedExpr(be.X) {
		w.assign(id, true, false)
	}
}

// rangeKeyTainted decides whether the key of `range x` is tainted: for an
// integer range, when x is; for a container, when its length was never
// bound-checked.
func (w *walker) rangeKeyTainted(x ast.Expr) bool {
	if tv, ok := w.pass.TypesInfo.Types[x]; ok {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return w.taintedExpr(x)
		}
	}
	return !w.bounded[rootObject(w.pass.TypesInfo, x)]
}

func (w *walker) checkExprs(exprs []ast.Expr) {
	for _, e := range exprs {
		w.checkExpr(e)
	}
}

// checkExpr checks every conversion in e and walks the bodies of function
// literals in place.
func (w *walker) checkExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(n.Body.List)
			return false
		case *ast.CallExpr:
			w.checkConversion(n)
		}
		return true
	})
}

// boundedExpr reports whether an expression yields a container of known,
// untainted size: make() with clean size args, a composite literal, or a
// slice of (or alias to) a bounded container.
func (w *walker) boundedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.Ident:
		return w.bounded[analysis.ObjectOf(w.pass.TypesInfo, e)]
	case *ast.SliceExpr:
		return w.boundedExpr(e.X)
	case *ast.CallExpr:
		if builtin(w.pass.TypesInfo, e) != "make" {
			return false
		}
		for _, size := range e.Args[1:] {
			if w.taintedExpr(size) {
				return false
			}
		}
		return true
	}
	return false
}

// taintedExpr reports whether e's value derives from a len or cap.
func (w *walker) taintedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return w.tainted[analysis.ObjectOf(w.pass.TypesInfo, e)]
	case *ast.BinaryExpr:
		if (e.Op == token.REM || e.Op == token.AND) && !w.taintedExpr(e.Y) {
			return false // x % m and x & mask are bounded by a clean m or mask
		}
		return w.taintedExpr(e.X) || w.taintedExpr(e.Y)
	case *ast.UnaryExpr:
		return w.taintedExpr(e.X)
	case *ast.CallExpr:
		return w.taintedCall(e)
	case *ast.IndexExpr:
		// Elements of a container that received tainted writes are tainted;
		// the index itself is not part of the value.
		return w.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if w.taintedExpr(el) {
				return true
			}
		}
	case *ast.SelectorExpr:
		obj, _ := w.pass.TypesInfo.Uses[e.Sel].(*types.Var)
		return w.tainted[obj]
	}
	return false
}

// taintedCall classifies calls: conversions propagate, len/cap of an
// unbounded container taints, and min() clamps.
func (w *walker) taintedCall(call *ast.CallExpr) bool {
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.taintedExpr(call.Args[0])
	}
	b := builtin(w.pass.TypesInfo, call)
	return (b == "len" || b == "cap") && !w.bounded[rootObject(w.pass.TypesInfo, call.Args[0])]
}

// clearCompared handles the diverging-if bound: every variable on either
// side of a clearing comparison in cond is untainted, and every container
// whose len/cap is compared becomes bounded.
func (w *walker) clearCompared(cond ast.Expr) {
	info := w.pass.TypesInfo
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !clears(be.Op) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.Ident:
					delete(w.tainted, analysis.ObjectOf(info, m))
				case *ast.CallExpr:
					if b := builtin(info, m); b == "len" || b == "cap" {
						if obj := rootObject(info, m.Args[0]); obj != nil {
							w.bounded[obj] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ, token.EQL:
		return true
	}
	return false
}

// clears is the one clearing predicate: an ordered comparison or != in a
// diverging if bounds its operands; `n == 0` rules out zero and caps
// nothing.
func clears(op token.Token) bool {
	return isComparison(op) && op != token.EQL
}

// builtin names the builtin function a call invokes, or "".
func builtin(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// rootObject resolves the variable at the base of x (behind selectors,
// indexes and dereferences), for container bookkeeping.
func rootObject(info *types.Info, x ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			return analysis.ObjectOf(info, e)
		case *ast.SelectorExpr:
			obj, _ := info.Uses[e.Sel].(*types.Var)
			return obj
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		default:
			return nil
		}
	}
}
