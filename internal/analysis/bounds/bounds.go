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
// variables, range keys and container or field writes. A comparison of the
// value (or of len(container)) inside an if whose body diverges caps it by
// what it is compared with when the comparison's negation is an upper bound:
// `n > C` and `C < n` cap n, `n != C` caps both sides, while `n < 1` rules
// out small values and `n == 0` rules out zero, and neither caps anything. A
// constant cap keeps its bit length, so after an int32 backstop int32(i)
// passes and int16(i) is still reported, while a cap by a variable trusts
// the variable and clears the value. A reduction x % m or x & m takes m's
// width; min() clears.
package bounds

import (
	"go/ast"
	"go/constant"
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
						w := &walker{pass: pass, taint: map[*types.Var]width{}, sized: map[*types.Var]width{}}
						w.walkStmts(fd.Body.List)
					}
				}
			}
			return nil
		},
	}
}

// width is the number of value bits a len/cap-derived value may need: 0
// for a clean value (no len or cap reaches it, or a comparison with a
// variable cleared it), unbounded for one no check bounds, and a constant
// bound's bit length after a diverging comparison with it.
type width int

// unbounded is wider than any integer conversion target.
const unbounded width = 64

// checkConversion reports an integer conversion that narrows a tainted
// value to fewer value bits than its bound.
func (w *walker) checkConversion(call *ast.CallExpr) {
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 || !w.narrows(tv.Type, call.Args[0]) ||
		w.widthOf(call.Args[0]) <= valueBits(tv.Type) {
		return
	}
	w.pass.Reportf(call.Pos(),
		"%s conversion narrows a len/cap-derived value and can overflow silently at scale; add a dominating bound check (compare it or len(...) against the target's max first)",
		types.TypeString(tv.Type, types.RelativeTo(w.pass.Pkg)))
}

// amd64 models the 64-bit targets the scale argument is about; on them a
// plain int is 8 bytes, so int→int32 is a narrowing.
var amd64 = types.SizesFor("gc", "amd64")

// valueBits returns how many value bits an integer type holds: 31 for
// int32, 32 for uint32.
func valueBits(t types.Type) width {
	b := t.Underlying().(*types.Basic)
	bits := width(8 * amd64.Sizeof(b))
	if b.Info()&types.IsUnsigned == 0 {
		bits--
	}
	return bits
}

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
	pass *analysis.Pass
	// taint holds each tainted variable's width; a clean one is absent.
	taint map[*types.Var]width
	// sized holds the width of len() for containers of known size: built by
	// make() with bounded sizes or a literal (width 0), or whose len was
	// compared in a diverging if. After `if len(keys) > maxInt32 { return
	// err }`, len(keys) and range keys over keys are 31 bits wide. A
	// container of unknown size is absent.
	sized map[*types.Var]width
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
			t := w.widthOf(s.Rhs[i])
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				t = max(t, w.widthOf(lhs)) // op-assign keeps existing taint
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				w.assign(id, t, w.sizeOf(s.Rhs[i]))
			} else if obj := rootObject(w.pass.TypesInfo, lhs); t > 0 && obj != nil {
				// A tainted element or field write taints its container, so
				// taint survives round-trips through slices and structs
				// (bounds[s] = [2]int{lo, hi}; ... bounds[s][1]).
				w.taint[obj] = max(w.taint[obj], t)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.checkExprs(vs.Values)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.assign(name, w.widthOf(vs.Values[i]), w.sizeOf(vs.Values[i]))
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
		key := w.rangeKeyWidth(s.X)
		if id, ok := s.Key.(*ast.Ident); ok {
			w.assign(id, key, unbounded)
		}
		if id, ok := s.Value.(*ast.Ident); ok {
			w.assign(id, 0, unbounded) // element values are data, not sizes
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

// assign records a variable's taint width and, for a container, the width
// of its len (unbounded when its size is unknown).
func (w *walker) assign(id *ast.Ident, taint, size width) {
	if obj := analysis.ObjectOf(w.pass.TypesInfo, id); obj != nil {
		w.setWidths(obj, taint, size)
	}
}

func (w *walker) setWidths(obj *types.Var, taint, size width) {
	if taint > 0 {
		w.taint[obj] = taint
	} else {
		delete(w.taint, obj)
	}
	if size < unbounded {
		w.sized[obj] = size
	} else {
		delete(w.sized, obj)
	}
}

// lenWidth returns the width of len(obj).
func (w *walker) lenWidth(obj *types.Var) width {
	if n, ok := w.sized[obj]; ok {
		return n
	}
	return unbounded
}

// taintInduction taints a loop variable compared against a tainted bound:
// `for i := 0; i < n; i++` gives i the width of n when n is tainted.
func (w *walker) taintInduction(cond ast.Expr) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || !isComparison(be.Op) {
		return
	}
	if id, ok := ast.Unparen(be.X).(*ast.Ident); ok && w.widthOf(be.Y) > 0 {
		w.assign(id, w.widthOf(be.Y), unbounded)
	}
	if id, ok := ast.Unparen(be.Y).(*ast.Ident); ok && w.widthOf(be.X) > 0 {
		w.assign(id, w.widthOf(be.X), unbounded)
	}
}

// rangeKeyWidth gives the key of `range x` its width: for an integer range,
// x's; for a container, its len's.
func (w *walker) rangeKeyWidth(x ast.Expr) width {
	if tv, ok := w.pass.TypesInfo.Types[x]; ok {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return w.widthOf(x)
		}
	}
	return w.lenWidth(rootObject(w.pass.TypesInfo, x))
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

// sizeOf returns the width of len() of the container e yields: make()'s
// widest size arg, 0 for a composite literal, its source's for a slice of
// (or alias to) a container, and unbounded when the size is unknown.
func (w *walker) sizeOf(e ast.Expr) width {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return 0
	case *ast.Ident:
		return w.lenWidth(analysis.ObjectOf(w.pass.TypesInfo, e))
	case *ast.SliceExpr:
		return w.sizeOf(e.X)
	case *ast.CallExpr:
		if builtin(w.pass.TypesInfo, e) != "make" {
			return unbounded
		}
		size := width(0)
		for _, arg := range e.Args[1:] {
			size = max(size, w.widthOf(arg))
		}
		return size
	}
	return unbounded
}

// widthOf returns the width of e's value: 0 unless it derives from a len or
// cap.
func (w *walker) widthOf(e ast.Expr) width {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return w.taint[analysis.ObjectOf(w.pass.TypesInfo, e)]
	case *ast.BinaryExpr:
		if e.Op == token.REM || e.Op == token.AND {
			return w.widthOf(e.Y) // x % m and x & mask are bounded by m or mask
		}
		return max(w.widthOf(e.X), w.widthOf(e.Y))
	case *ast.UnaryExpr:
		return w.widthOf(e.X)
	case *ast.CallExpr:
		return w.callWidth(e)
	case *ast.IndexExpr:
		// Elements of a container that received tainted writes are tainted;
		// the index itself is not part of the value.
		return w.widthOf(e.X)
	case *ast.CompositeLit:
		n := width(0)
		for _, el := range e.Elts {
			n = max(n, w.widthOf(el))
		}
		return n
	case *ast.SelectorExpr:
		obj, _ := w.pass.TypesInfo.Uses[e.Sel].(*types.Var)
		return w.taint[obj]
	}
	return 0
}

// callWidth classifies calls: conversions propagate, len/cap take their
// container's size width, and min() clamps.
func (w *walker) callWidth(call *ast.CallExpr) width {
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.widthOf(call.Args[0])
	}
	if b := builtin(w.pass.TypesInfo, call); b == "len" || b == "cap" {
		return w.lenWidth(rootObject(w.pass.TypesInfo, call.Args[0]))
	}
	return 0
}

// clearCompared handles the diverging-if bound. Past `if a OP b { diverge }`
// the negation holds, so a > b (or a >= b) caps a by b, a < b (or a <= b)
// caps b by a, and a != b caps each by the other. Every variable on a capped
// side, and the len/cap of every container there, is narrowed to the cap's
// width (never widened).
func (w *walker) clearCompared(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || !clears(be.Op) {
			return true
		}
		if be.Op != token.LSS && be.Op != token.LEQ {
			w.capSide(be.X, w.capWidth(be.Y))
		}
		if be.Op != token.GTR && be.Op != token.GEQ {
			w.capSide(be.Y, w.capWidth(be.X))
		}
		return true
	})
}

// capSide narrows every variable in side, and the len/cap of every container
// compared there, to bound.
func (w *walker) capSide(side ast.Expr, bound width) {
	info := w.pass.TypesInfo
	ast.Inspect(side, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.Ident:
			if obj := analysis.ObjectOf(info, m); obj != nil {
				w.setWidths(obj, min(w.taint[obj], bound), w.lenWidth(obj))
			}
		case *ast.CallExpr:
			if b := builtin(info, m); b == "len" || b == "cap" {
				if obj := rootObject(info, m.Args[0]); obj != nil {
					w.setWidths(obj, w.taint[obj], min(w.lenWidth(obj), bound))
				}
			}
		}
		return true
	})
}

// capWidth returns the width the cap e sets: the bit length of a constant's
// magnitude, or 0 — a comparison with a variable trusts the variable's own
// bound.
func (w *walker) capWidth(e ast.Expr) width {
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0
	}
	if constant.Sign(v) < 0 {
		v = constant.UnaryOp(token.SUB, v, 0)
	}
	return width(constant.BitLen(v))
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ, token.EQL:
		return true
	}
	return false
}

// clears is the one clearing predicate: an ordered comparison or != in a
// diverging if caps one or both operands; `n == 0` rules out zero and caps
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
