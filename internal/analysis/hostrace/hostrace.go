// Package hostrace flags unsynchronized writes to shared state from the
// closures hostpar.For and hostpar.Blocks run in parallel. go test -race
// catches these only when the schedule cooperates: hostpar hands indices
// out through one atomic counter, so one goroutine may take every block and
// leave nothing for the detector to see. The lint catches them statically.
// The core phase pool (runPhase, exchange) is out of scope: its bodies run
// once per node on every superstep, and a package-wide -race run over
// internal/core reports their cross-node writes.
//
// The contract a parallel body must follow is the one hostpar documents:
// write only state owned by the invocation. Ownership is derived from the
// body's parameters (the shard index or block bounds and anything computed
// from them). A write to a captured variable is reported unless it is
//
//   - index-disjoint: the access path indexes a slice/array with an
//     owned-derived expression (counts[s] = cnt), or the root local was
//     itself derived from an owned value (row := rows[s]; row.n = cnt), or
//   - mutex-guarded: it executes between x.Lock() and x.Unlock() (a
//     deferred Unlock guards to the end of the body), or
//   - invisible to assignment syntax entirely — sync/atomic calls mutate
//     via method calls and never trip the check.
//
// Concurrent map writes are reported even at owned keys: distinct keys do
// not make a Go map write safe. Calls to closures defined in the enclosing
// function are followed (their bodies run inside the parallel region);
// parameters of literals passed to other callees (EachEdgeRange-style
// callbacks) are optimistically treated as owned, since such callbacks are
// invoked with values derived from the owned range. Function results are
// treated as fresh (pool getters return distinct buffers); mutation hidden
// behind method calls is out of scope.
package hostrace

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"imitator/internal/analysis"
)

// New returns the hostrace analyzer.
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hostrace",
		Doc:  "forbid unsynchronized writes to captured variables inside hostpar.For/Blocks bodies",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Closures defined in this function, so parallel bodies can
			// follow calls to them.
			locals := localFuncLits(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isParallel(pass, call) {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						w := &walker{
							pass:    pass,
							owned:   map[*types.Var]bool{},
							aliases: map[*types.Var]bool{},
							locals:  locals,
							visited: map[*ast.FuncLit]bool{},
						}
						w.analyzeBody(lit, true)
					}
				}
				return true
			})
		}
	}
	return nil
}

// isParallel recognizes hostpar.For and hostpar.Blocks.
func isParallel(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "For" && sel.Sel.Name != "Blocks") {
		return false
	}
	pkg, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName)
	return ok && strings.HasSuffix(pn.Imported().Path(), "internal/hostpar")
}

// localFuncLits maps variables holding closures defined in the enclosing
// function (helper := func(...) {...}).
func localFuncLits(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Var]*ast.FuncLit {
	out := map[*types.Var]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			lit, ok := as.Rhs[i].(*ast.FuncLit)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v := analysis.ObjectOf(pass.TypesInfo, id); v != nil {
					out[v] = lit
				}
			}
		}
		return true
	})
	return out
}

type walker struct {
	pass *analysis.Pass
	// owned: variables derived from the invocation's parameters — writes
	// through them (and slice writes indexed by them) are disjoint.
	owned map[*types.Var]bool
	// aliases: locals that alias captured state with no owned index in
	// their derivation; writing through them is writing shared state.
	aliases map[*types.Var]bool
	locals  map[*types.Var]*ast.FuncLit
	visited map[*ast.FuncLit]bool
	// regions brackets every literal analyzed as part of this parallel
	// execution (the body plus followed helper closures); objects declared
	// outside all of them are captured.
	regions   [][2]token.Pos
	lockDepth int
}

// analyzeBody seeds ownership from the literal's parameters and walks it.
// Called closures (local helpers, callbacks) recurse with ownedParams
// telling whether their parameters inherit ownership.
func (w *walker) analyzeBody(lit *ast.FuncLit, ownedParams bool) {
	if w.visited[lit] {
		return
	}
	w.visited[lit] = true
	w.regions = append(w.regions, [2]token.Pos{lit.Pos(), lit.End()})
	for _, fl := range lit.Type.Params.List {
		for _, name := range fl.Names {
			if v, ok := w.pass.TypesInfo.Defs[name].(*types.Var); ok && ownedParams {
				w.owned[v] = true
			}
		}
	}
	w.walkStmts(lit.Body.List)
}

func (w *walker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *walker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.checkWrite(lhs)
		}
		w.classifyAssign(s)
		for _, rhs := range s.Rhs {
			w.walkExpr(rhs)
		}
	case *ast.IncDecStmt:
		w.checkWrite(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						// var x T with no value: a fresh local, owned.
						cls := clsOwned
						if i < len(vs.Values) {
							cls = w.classifyExpr(vs.Values[i])
							w.walkExpr(vs.Values[i])
						}
						w.setClass(name, cls)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkExpr(s.Cond)
		w.walkStmts(s.Body.List)
		if s.Else != nil {
			w.walkStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond)
		}
		w.walkStmts(s.Body.List)
		if s.Post != nil {
			w.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		// Iterating an owned (or local) container yields owned positions;
		// iterating a captured one yields positions every invocation also
		// sees — writes indexed by them are not disjoint.
		cls := w.classifyExpr(s.X)
		if id, ok := s.Key.(*ast.Ident); ok {
			w.setClass(id, cls)
		}
		if id, ok := s.Value.(*ast.Ident); ok {
			w.setClass(id, cls)
		}
		w.walkStmts(s.Body.List)
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				w.walkStmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.GoStmt:
		w.walkExpr(s.Call)
	case *ast.DeferStmt:
		// defer mu.Unlock() guards to the end of the body: do not drop
		// the lock depth. Other deferred calls are walked normally.
		if !isLockCall(s.Call, "Unlock", "RUnlock") {
			w.walkExpr(s.Call)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r)
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
	}
}

type class int

const (
	clsOwned class = iota
	clsPlain       // local, but not derived from the invocation index
	clsAlias       // local aliasing captured state
	clsCaptured
)

// classifyAssign records the class of plain local targets (x := expr).
func (w *walker) classifyAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		// x, y := f(...): function results are fresh values.
		cls := clsOwned
		for _, rhs := range s.Rhs {
			if w.classifyExpr(rhs) == clsAlias {
				cls = clsAlias
			}
		}
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				w.setClass(id, cls)
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		w.setClass(id, w.classifyExpr(s.Rhs[i]))
	}
}

func (w *walker) setClass(id *ast.Ident, cls class) {
	if id == nil || id.Name == "_" {
		return
	}
	v := analysis.ObjectOf(w.pass.TypesInfo, id)
	if v == nil || w.capturedVar(v) {
		return // assignments to captured vars are handled by checkWrite
	}
	delete(w.owned, v)
	delete(w.aliases, v)
	switch cls {
	case clsOwned:
		w.owned[v] = true
	case clsAlias:
		w.aliases[v] = true
	}
}

// classifyExpr decides what a local initialized from e becomes. Anything
// touched by an owned value is owned (the index-disjointness contract
// extends through derivation: row := rows[s]). A direct alias of
// captured state (s := c.buf, p := &shared) without an owned index is an
// alias. Call results are fresh. Everything else is plain.
func (w *walker) classifyExpr(e ast.Expr) class {
	if e == nil {
		return clsOwned
	}
	if w.referencesOwned(e) {
		return clsOwned
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return clsOwned // fresh result (pool getters return distinct buffers)
	case *ast.UnaryExpr:
		if e.Op == token.AND && w.capturedRoot(e.X) {
			return clsAlias
		}
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr:
		if w.capturedRoot(e.(ast.Expr)) && isRefType(w.pass, e.(ast.Expr)) {
			return clsAlias
		}
	}
	return clsPlain
}

// walkExpr descends into expressions: nested func literals run inside the
// parallel region (callback bodies), and calls to enclosing-function
// closures are followed.
func (w *walker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isParallel(w.pass, n) {
				// A nested parallel section is analyzed on its own by run.
				return false
			}
			if isLockCall(n, "Lock", "RLock") {
				w.lockDepth++
			}
			if isLockCall(n, "Unlock", "RUnlock") && w.lockDepth > 0 {
				w.lockDepth--
			}
			fun, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				break
			}
			if lit, ok := w.locals[analysis.ObjectOf(w.pass.TypesInfo, fun)]; ok {
				// A helper closure from the enclosing function: its body
				// runs here. Parameters inherit ownership when every
				// argument is owned.
				owned := true
				for _, a := range n.Args {
					if w.classifyExpr(a) != clsOwned {
						owned = false
					}
				}
				w.analyzeBody(lit, owned)
			}
		case *ast.FuncLit:
			// A callback literal (EachEdgeRange-style): its body executes
			// within this invocation; its parameters carry values derived
			// from the owned range (documented approximation).
			w.analyzeBody(n, true)
			return false
		}
		return true
	})
}

// checkWrite validates one assignment target.
func (w *walker) checkWrite(lhs ast.Expr) {
	path := ast.Unparen(lhs)
	ownedIndex := false
	mapWrite := false
	indirect := false // wrote through a selector/index/star, not the ident itself
	label := ""       // the field actually written (c.total → "total")
loop:
	for {
		switch e := path.(type) {
		case *ast.ParenExpr:
			path = e.X
		case *ast.IndexExpr:
			if w.referencesOwned(e.Index) {
				if isMapIndex(w.pass, e) {
					mapWrite = true
				} else {
					ownedIndex = true
				}
			} else if isMapIndex(w.pass, e) {
				mapWrite = true
			}
			indirect = true
			path = e.X
		case *ast.SelectorExpr:
			if label == "" {
				label = e.Sel.Name
			}
			indirect = true
			path = e.X
		case *ast.StarExpr:
			indirect = true
			path = e.X
		default:
			break loop
		}
	}
	id, ok := path.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v := analysis.ObjectOf(w.pass.TypesInfo, id)
	if v == nil {
		return
	}
	if label == "" {
		label = v.Name()
	}

	if !w.capturedVar(v) {
		// Local root: plain rebinding is classifyAssign's business;
		// writing *through* a shared alias is a shared write.
		if indirect && w.aliases[v] && !ownedIndex && w.lockDepth == 0 {
			w.report(lhs, label, "a local alias of captured state")
		}
		return
	}
	if mapWrite {
		w.report(lhs, label, "a captured map (concurrent map writes are unsafe even at distinct keys)")
		return
	}
	if ownedIndex || w.lockDepth > 0 {
		return
	}
	w.report(lhs, label, "a captured variable")
}

func (w *walker) report(at ast.Expr, name, what string) {
	w.pass.Reportf(at.Pos(),
		"parallel body writes %s (%s) without an index-disjoint slot, atomic, or lock; shard it by the invocation index",
		what, name)
}

// referencesOwned reports whether e mentions any owned variable.
func (w *walker) referencesOwned(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := analysis.ObjectOf(w.pass.TypesInfo, id); v != nil && w.owned[v] {
				found = true
			}
		}
		return !found
	})
	return found
}

// capturedRoot reports whether the base identifier of e is captured.
func (w *walker) capturedRoot(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v := analysis.ObjectOf(w.pass.TypesInfo, x)
			return v != nil && w.capturedVar(v)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// capturedVar reports whether v is declared outside every analyzed region
// (including the enclosing receiver and package-level variables).
func (w *walker) capturedVar(v *types.Var) bool {
	if v.IsField() {
		return false // fields are reached through some root; the root decides
	}
	for _, r := range w.regions {
		if v.Pos() >= r[0] && v.Pos() < r[1] {
			return false
		}
	}
	return true
}

func isRefType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

func isMapIndex(pass *analysis.Pass, e *ast.IndexExpr) bool {
	tv, ok := pass.TypesInfo.Types[e.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isLockCall matches x.Lock() / x.Unlock() style calls by method name.
func isLockCall(call *ast.CallExpr, names ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}
