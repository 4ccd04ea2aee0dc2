// Package bounds holds the two bound-check analyzers, wirebounds and
// narrowing. Both ask one question — does a value from a source reach a
// sink with no dominating bound check in between? — and share one taint
// walker; a rule says where each looks, what taints and what is reported.
//
// wirebounds guards bytes that come back over the wire or from DFS. In any
// decode-shaped function (name matching decode/read/parse/unmarshal), a
// length read by encoding/binary or the sticky reader's u16/u32/u64 methods
// is tainted; passing it to make(), or looping to it around append, is
// reported:
//
//	n := int(r.u32())
//	if n*14 > r.remaining() { // ← this is the dominating bound
//		r.fail()
//		return &rawEdges{}
//	}
//	e.src = make([]graph.VertexID, n) // ok
//
// Without the bound, a 4-byte frame header can demand a multi-gigabyte
// allocation before any payload byte is read, and after truncation the
// sticky reader yields zeros while a count-driven loop keeps appending.
//
// narrowing guards sizes in the packages that build the compact SoA/CSR
// layout (graph, gen, partition, ftlog). A value derived from len() or cap()
// — an element count, a byte length, a loop index bounded by one — is
// tainted; converting it to a strictly narrower integer type (int → int32,
// int → uint32, ...) is reported:
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
// negative and corrupts the CSR silently instead of failing loudly.
//
// Taint flows through assignment, arithmetic, conversions, loop induction
// variables, range keys and container or field writes. It clears on a
// comparison of the value (or of len(container)) inside an if whose body
// diverges — ordered (<, <=, >, >=) or !=; `n == 0` rules out zero and caps
// nothing — and on a reduction: x % m, x & mask, min().
//
// Exceptions carry //imitator:wirebounds-ok <reason> or
// //imitator:narrowing-ok <reason>.
package bounds

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

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

// decoderName matches functions whose input is wire- or file-shaped.
var decoderName = regexp.MustCompile(`(?i)(decode|read|parse|unmarshal)`)

// wireReadNames are the wire rule's source callees: encoding/binary reads
// and the sticky-reader methods. u8/bool are excluded — a byte-sized count
// cannot demand a harmful allocation.
var wireReadNames = map[string]bool{
	"Uint16": true, "Uint32": true, "Uint64": true,
	"Varint": true, "Uvarint": true, "ReadVarint": true, "ReadUvarint": true,
	"u16": true, "u32": true, "u64": true, "i16": true, "i32": true, "i64": true,
	"varint": true, "uvarint": true,
}

// rule is everything that tells the two analyzers apart.
type rule struct {
	// scope selects the functions to walk.
	scope func(pkgPath string, fd *ast.FuncDecl) bool
	// sizes selects the sources: len/cap of a container whose length was
	// never bound-checked, and range keys over one, when true; the
	// wireReadNames calls when false.
	sizes bool
	// sink reports a call that consumes a tainted value.
	sink func(w *walker, call *ast.CallExpr)
	// loopMsg, when set, is reported at a loop whose bound is tainted and
	// whose body appends.
	loopMsg string
}

// Wirebounds returns the analyzer that bounds decoded lengths before they
// size an allocation.
func Wirebounds() *analysis.Analyzer {
	return newAnalyzer("wirebounds",
		"require a dominating sanity bound before allocating with lengths decoded from wire input",
		rule{
			scope:   func(_ string, fd *ast.FuncDecl) bool { return decoderName.MatchString(fd.Name.Name) },
			sink:    checkMake,
			loopMsg: "loop bound derives from decoded input and the body appends; bound the count against the remaining payload first, or annotate //imitator:wirebounds-ok <reason>",
		})
}

// Narrowing returns the analyzer that bounds len/cap-derived sizes before
// they are narrowed, in NarrowingPackages.
func Narrowing() *analysis.Analyzer {
	return newAnalyzer("narrowing",
		"require a dominating bound check before narrowing a len/cap-derived value to a smaller integer type",
		rule{
			scope: func(path string, _ *ast.FuncDecl) bool { return analysis.InPackages(path, NarrowingPackages) },
			sizes: true,
			sink:  checkConversion,
		})
}

func newAnalyzer(name, doc string, r rule) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      name,
		Directive: name,
		Doc:       doc,
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil || !r.scope(pass.Pkg.Path(), fd) {
						continue
					}
					w := &walker{pass: pass, rule: &r, tainted: map[*types.Var]bool{}, bounded: map[*types.Var]bool{}}
					w.walkStmts(fd.Body.List)
				}
			}
			return nil
		},
	}
}

// checkMake is the wire rule's sink: make() sized by a tainted length.
func checkMake(w *walker, call *ast.CallExpr) {
	if builtin(w.pass.TypesInfo, call) != "make" {
		return
	}
	for _, size := range call.Args[1:] {
		if w.taintedExpr(size) {
			w.pass.Reportf(call.Pos(),
				"make sized by a length decoded from wire input with no dominating bound check; compare it against the remaining payload (see decodeRawEdges) or annotate //imitator:wirebounds-ok <reason>")
			return
		}
	}
}

// checkConversion is the narrowing rule's sink: an integer conversion that
// narrows a tainted value.
func checkConversion(w *walker, call *ast.CallExpr) {
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 || !w.narrows(tv.Type, call.Args[0]) || !w.taintedExpr(call.Args[0]) {
		return
	}
	w.pass.Reportf(call.Pos(),
		"%s conversion narrows a len/cap-derived value and can overflow silently at scale; add a dominating bound check (compare it or len(...) against the target's max first) or annotate //imitator:narrowing-ok <reason>",
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
	rule    *rule
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
			w.checkLoop(s, w.comparesTainted(s.Cond), s.Body)
			w.taintInduction(s.Cond)
		}
		w.walkStmts(s.Body.List)
		w.walkStmt(s.Post)
	case *ast.RangeStmt:
		w.checkExpr(s.X)
		key := w.rangeKeyTainted(s.X)
		w.checkLoop(s, key, s.Body)
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

// checkLoop reports, under the wire rule, a loop whose bound is tainted and
// whose body appends.
func (w *walker) checkLoop(loop ast.Stmt, tainted bool, body *ast.BlockStmt) {
	if w.rule.loopMsg != "" && tainted && containsAppend(body) {
		w.pass.Reportf(loop.Pos(), "%s", w.rule.loopMsg)
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
// integer range, when x is; under the size rule, also for a container whose
// length was never bound-checked.
func (w *walker) rangeKeyTainted(x ast.Expr) bool {
	if tv, ok := w.pass.TypesInfo.Types[x]; ok {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return w.taintedExpr(x)
		}
	}
	return w.rule.sizes && !w.bounded[rootObject(w.pass.TypesInfo, x)]
}

func (w *walker) checkExprs(exprs []ast.Expr) {
	for _, e := range exprs {
		w.checkExpr(e)
	}
}

// checkExpr hands every call in e to the rule's sink and walks the bodies
// of function literals in place.
func (w *walker) checkExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(n.Body.List)
			return false
		case *ast.CallExpr:
			w.rule.sink(w, n)
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

// taintedExpr reports whether e's value derives from the rule's sources.
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

// taintedCall classifies calls: conversions propagate, the rule's sources
// taint, and min() clamps.
func (w *walker) taintedCall(call *ast.CallExpr) bool {
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.taintedExpr(call.Args[0])
	}
	switch builtin(w.pass.TypesInfo, call) {
	case "len", "cap":
		return w.rule.sizes && !w.bounded[rootObject(w.pass.TypesInfo, call.Args[0])]
	case "":
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		return !w.rule.sizes && wireReadNames[name]
	}
	return false
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

// comparesTainted reports whether cond compares a tainted value.
func (w *walker) comparesTainted(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok && isComparison(be.Op) && (w.taintedExpr(be.X) || w.taintedExpr(be.Y)) {
			found = true
		}
		return !found
	})
	return found
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

// containsAppend reports whether a block grows a slice with append.
func containsAppend(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				found = true
			}
		}
		return !found
	})
	return found
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
