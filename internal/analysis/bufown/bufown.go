// Package bufown checks the bufpool ownership protocol from PR 2: every
// buffer obtained from a bufpool.Pool must, on every path, end in exactly
// one of the accepted ownership sinks — Put back to the pool, transferred
// to the network (netsim Send), stored into an owning container (struct
// field, slice slot, map entry), or returned to the caller. It flags
//
//   - buffers that can reach a return with no release (leak),
//   - a second release of an already-released buffer (double Put),
//   - uses of a buffer after its release (use after Put/transfer),
//   - overwriting a still-live buffer variable with a fresh Get.
//
// The analysis is a conservative intra-function walk in statement order
// with must-release branch merging: if/else, switch and loops are explored
// independently and a buffer released on only some paths is "maybe-live",
// which still counts as a leak at function exit. Ownership flows through
// the engine's append-style encoders: a call taking an owned []byte whose
// []byte result is assigned carries the ownership to the result (the
// `buf = encode(buf)` idiom); calls whose result is discarded or not a
// byte slice merely borrow (io.Writer.Write). Closures that capture an
// owned buffer and goroutine/channel handoffs conservatively count as
// transfers.
//
// False positives are suppressed with //imitator:bufown-ok <reason>.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"imitator/internal/analysis"
)

// New returns the bufown analyzer.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name:      "bufown",
		Directive: "bufown",
		Doc:       "check bufpool buffer ownership: Put/transfer on every path, no double Put, no use after Put",
	}
	a.Run = run
	return a
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, leaked: map[token.Pos]bool{}}
			env := env{}
			terminated := w.walkBlock(fd.Body, env)
			if !terminated {
				w.checkLeaks(env)
			}
		}
	}
	return nil
}

// status is a buffer variable's must-analysis state.
type status int

const (
	live     status = iota // definitely holds an unreleased buffer
	released               // Put or transferred on every path so far
	maybe                  // released on some paths only
)

// buf is the tracked state of one buffer binding.
type buf struct {
	status   status
	getPos   token.Pos // the Get (or first owning bind) position
	deferred bool      // release happens via defer at exit; later uses are fine
}

// env maps variable objects to their buffer state. Aliased names share one
// *buf (“y := x“ binds y to x's cell).
type env map[*types.Var]*buf

func (e env) clone() env {
	// Clone cells too: branches must not mutate each other's view.
	c := make(env, len(e))
	remap := map[*buf]*buf{}
	for k, v := range e {
		nv, ok := remap[v]
		if !ok {
			cp := *v
			nv = &cp
			remap[v] = nv
		}
		c[k] = nv
	}
	return c
}

// merge folds branch b into e (both derived from the same pre-state).
func merge(e, b env) {
	for k, vb := range b {
		ve, ok := e[k]
		if !ok {
			e[k] = vb
			continue
		}
		if ve.status != vb.status {
			ve.status = maybe
		}
		ve.deferred = ve.deferred && vb.deferred
	}
}

type walker struct {
	pass   *analysis.Pass
	leaked map[token.Pos]bool // dedupe leak reports across exits
}

// ownership is what an expression evaluation yields.
type ownership struct {
	cell  *buf       // non-nil: the expression carries this buffer
	obj   *types.Var // the variable it came from, if any
	fresh bool       // a Get temporary not yet bound to a variable
	pos   token.Pos
}

func (w *walker) walkBlock(b *ast.BlockStmt, e env) bool {
	for _, s := range b.List {
		if w.walkStmt(s, e) {
			return true
		}
	}
	return false
}

// walkStmt interprets one statement; it returns true when control
// definitely leaves the enclosing function (return/panic).
func (w *walker) walkStmt(s ast.Stmt, e env) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, e)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						own := w.evalExpr(vs.Values[i], e, true)
						w.bindIdent(name, own, e)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.checkUses(s.X, e)
		w.evalExpr(s.X, e, false)
		// A panic exits the function; fail-fast paths are not leak-checked.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return true
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkUses(r, e)
			own := w.evalExpr(r, e, true)
			w.release(own, e)
		}
		w.checkLeaks(e)
		return true
	case *ast.DeferStmt:
		w.deferCall(s.Call, e)
	case *ast.GoStmt:
		// The goroutine takes over everything it receives or captures.
		for _, arg := range s.Call.Args {
			w.release(w.evalExpr(arg, e, true), e)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.enterFuncLit(lit, e)
		}
	case *ast.SendStmt:
		w.checkUses(s.Value, e)
		w.release(w.evalExpr(s.Value, e, true), e)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, e)
		}
		w.checkUses(s.Cond, e)
		w.evalExpr(s.Cond, e, false)
		thenEnv := e.clone()
		thenTerm := w.walkBlock(s.Body, thenEnv)
		elseEnv := e.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.walkStmt(s.Else, elseEnv)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(e, elseEnv)
		case elseTerm:
			replace(e, thenEnv)
		default:
			replace(e, thenEnv)
			merge(e, elseEnv)
		}
	case *ast.BlockStmt:
		return w.walkBlock(s, e)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, e)
		}
		if s.Cond != nil {
			w.checkUses(s.Cond, e)
		}
		body := e.clone()
		w.walkBlock(s.Body, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
		merge(e, body) // the loop may run zero times
	case *ast.RangeStmt:
		w.checkUses(s.X, e)
		body := e.clone()
		w.walkBlock(s.Body, body)
		merge(e, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.walkCases(s, e)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, e)
	}
	return false
}

// replace overwrites e's bindings in place with b's.
func replace(e, b env) {
	for k := range e {
		delete(e, k)
	}
	for k, v := range b {
		e[k] = v
	}
}

// walkCases handles switch/select bodies: each clause runs on a copy of the
// pre-state; results merge (plus the fall-past path when there is no
// default clause).
func (w *walker) walkCases(s ast.Stmt, e env) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, e)
		}
		if s.Tag != nil {
			w.checkUses(s.Tag, e)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	pre := e.clone()
	first := true
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			stmts = cl.Body
		}
		branch := pre.clone()
		term := false
		for _, st := range stmts {
			if w.walkStmt(st, branch) {
				term = true
				break
			}
		}
		if term {
			continue
		}
		if first {
			replace(e, branch)
			first = false
		} else {
			merge(e, branch)
		}
	}
	if !hasDefault || first {
		if first {
			replace(e, pre)
		} else {
			merge(e, pre)
		}
	}
}

// assign interprets one assignment, routing buffer ownership.
func (w *walker) assign(s *ast.AssignStmt, e env) {
	for _, r := range s.Rhs {
		w.checkUses(r, e)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			own := w.evalExpr(s.Rhs[i], e, true)
			w.bindTarget(s.Lhs[i], own, e)
		}
		return
	}
	// Multi-value assignments from a single call never produce pool
	// buffers in this codebase; still, owned args flow into the call.
	for _, r := range s.Rhs {
		w.evalExpr(r, e, true)
	}
}

// bindTarget routes ownership into an assignment target.
func (w *walker) bindTarget(lhs ast.Expr, own ownership, e env) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		w.bindIdent(id, own, e)
		return
	}
	// Store into a field, slice slot, map entry or dereference: the
	// container owns the buffer now.
	w.release(own, e)
}

func (w *walker) bindIdent(id *ast.Ident, own ownership, e env) {
	if id.Name == "_" {
		if own.fresh {
			w.reportLeak(own.pos)
		}
		return
	}
	obj := analysis.ObjectOf(w.pass.TypesInfo, id)
	if obj == nil {
		return
	}
	if cur, ok := e[obj]; ok && cur.status == live && (own.cell == nil || own.cell != cur) {
		// The old buffer had no release before the name was rebound.
		w.reportLeakAt(cur, id.Pos(), "buffer overwritten while still live (previous Get leaks)")
	}
	switch {
	case own.fresh:
		e[obj] = &buf{status: live, getPos: own.pos}
	case own.cell != nil:
		e[obj] = own.cell // alias: both names share one state cell
	default:
		delete(e, obj)
	}
}

// release marks carried ownership as handed off.
func (w *walker) release(own ownership, e env) {
	if own.cell != nil {
		own.cell.status = released
	}
	// A fresh temporary released immediately (returned, stored, sent) is
	// fine — nothing to record.
}

// deferCall handles `defer pool.Put(x)` and defer closures releasing x.
func (w *walker) deferCall(call *ast.CallExpr, e env) {
	if arg := w.poolPutArg(call); arg != nil {
		if cell := w.cellFor(arg, e); cell != nil {
			if cell.status == released && !cell.deferred {
				w.pass.Reportf(call.Pos(), "buffer already released; deferred Put is a double release")
				return
			}
			cell.status = released
			cell.deferred = true
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.enterFuncLit(lit, e)
	}
}

// enterFuncLit conservatively transfers captured buffers to the closure and
// analyzes the closure body as its own scope.
func (w *walker) enterFuncLit(lit *ast.FuncLit, e env) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := analysis.ObjectOf(w.pass.TypesInfo, id); obj != nil {
				if cell, ok := e[obj]; ok {
					cell.status = released
					cell.deferred = true
				}
			}
		}
		return true
	})
	inner := env{}
	if !w.walkBlock(lit.Body, inner) {
		w.checkLeaks(inner)
	}
}

// evalExpr interprets an expression and returns the buffer ownership its
// value carries. resultUsed distinguishes `buf = encode(buf)` (ownership
// flows into the result) from a discarded borrow like conn.Write(buf).
func (w *walker) evalExpr(expr ast.Expr, e env, resultUsed bool) ownership {
	expr = ast.Unparen(expr)
	switch x := expr.(type) {
	case *ast.Ident:
		if cell := w.cellForIdent(x, e); cell != nil {
			return ownership{cell: cell, obj: analysis.ObjectOf(w.pass.TypesInfo, x), pos: x.Pos()}
		}
	case *ast.SliceExpr:
		return w.evalExpr(x.X, e, resultUsed)
	case *ast.CallExpr:
		return w.evalCall(x, e, resultUsed)
	case *ast.FuncLit:
		w.enterFuncLit(x, e)
	case *ast.UnaryExpr:
		w.evalExpr(x.X, e, false)
	case *ast.BinaryExpr:
		w.evalExpr(x.X, e, false)
		w.evalExpr(x.Y, e, false)
	}
	return ownership{}
}

func (w *walker) evalCall(call *ast.CallExpr, e env, resultUsed bool) ownership {
	// pool.Get() mints a fresh owned buffer.
	if w.isPoolGet(call) {
		return ownership{fresh: true, pos: call.Pos()}
	}
	// pool.Put(x) consumes x.
	if arg := w.poolPutArg(call); arg != nil {
		if cell := w.cellFor(arg, e); cell != nil {
			if cell.status == released {
				w.pass.Reportf(call.Pos(), "double Put: buffer already released on this path")
			}
			cell.status = released
			cell.deferred = false
		}
		return ownership{}
	}
	// Builtins copy or inspect; append is the one with alias semantics.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				// append(x, ...) may keep x's array: the result carries
				// x's ownership. A variadic source (append(dst, x...)) is
				// only read.
				base := w.evalExpr(call.Args[0], e, true)
				for _, a := range call.Args[1:] {
					w.evalExpr(a, e, false)
				}
				return base
			}
			for _, a := range call.Args {
				w.evalExpr(a, e, false)
			}
			return ownership{}
		}
	}
	// Evaluate arguments, finding owned ones.
	var owned []ownership
	for i, a := range call.Args {
		own := w.evalExpr(a, e, true)
		if own.cell != nil || own.fresh {
			if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
				continue // variadic spread is a read, not a handoff
			}
			owned = append(owned, own)
		}
	}
	if len(owned) == 0 {
		return ownership{}
	}
	// Known transfer sinks take ownership outright (netsim delivery: the
	// receiver recycles the payload).
	if w.isTransferCall(call) {
		for _, own := range owned {
			w.release(own, e)
		}
		return ownership{}
	}
	// Append-style encoders: an owned []byte in, a []byte out that is
	// actually consumed — ownership flows through the call to the result.
	if resultUsed && resultIsByteSlice(w.pass.TypesInfo, call) {
		first := owned[0]
		for _, own := range owned[1:] {
			w.release(own, e)
		}
		if first.fresh {
			return ownership{fresh: true, pos: first.pos}
		}
		return first
	}
	// Anything else borrows: the caller still owns the buffer. A fresh
	// temporary handed to a borrowing call with no way back is a leak.
	for _, own := range owned {
		if own.fresh {
			w.reportLeak(own.pos)
		}
	}
	return ownership{}
}

// checkUses reports reads of already-released buffers inside expr. Writes
// that rebind the variable are handled by assign before this fires.
func (w *walker) checkUses(expr ast.Expr, e env) {
	ast.Inspect(expr, func(n ast.Node) bool {
		// Put's own argument is judged by the double-Put check, not here.
		if call, ok := n.(*ast.CallExpr); ok && w.poolPutArg(call) != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := analysis.ObjectOf(w.pass.TypesInfo, id)
		if obj == nil {
			return true
		}
		if cell, ok := e[obj]; ok && cell.status == released && !cell.deferred {
			w.pass.Reportf(id.Pos(), "use of buffer %s after Put/ownership transfer", id.Name)
		}
		return true
	})
}

// checkLeaks reports every binding that can still be live at an exit.
func (w *walker) checkLeaks(e env) {
	seen := map[*buf]bool{}
	for _, cell := range e {
		if seen[cell] {
			continue
		}
		seen[cell] = true
		if cell.status == live || cell.status == maybe {
			w.reportLeak(cell.getPos)
		}
	}
}

func (w *walker) reportLeak(pos token.Pos) {
	if w.leaked[pos] {
		return
	}
	w.leaked[pos] = true
	w.pass.Reportf(pos, "buffer from bufpool Get is not Put, transferred or stored on every path (leaks; see the seed → transfer → recycle chain in DESIGN.md)")
}

func (w *walker) reportLeakAt(cell *buf, pos token.Pos, msg string) {
	if w.leaked[cell.getPos] {
		return
	}
	w.leaked[cell.getPos] = true
	w.pass.Reportf(pos, "%s", msg)
}

// --- type plumbing ---

func (w *walker) cellForIdent(id *ast.Ident, e env) *buf {
	if obj := analysis.ObjectOf(w.pass.TypesInfo, id); obj != nil {
		if cell, ok := e[obj]; ok {
			return cell
		}
	}
	return nil
}

// cellFor resolves an argument expression (possibly sliced/parenthesized)
// to a tracked buffer cell.
func (w *walker) cellFor(expr ast.Expr, e env) *buf {
	expr = ast.Unparen(expr)
	if sl, ok := expr.(*ast.SliceExpr); ok {
		return w.cellFor(sl.X, e)
	}
	if id, ok := expr.(*ast.Ident); ok {
		return w.cellForIdent(id, e)
	}
	return nil
}

// isPoolGet matches (*bufpool.Pool).Get and GetSlot.
func (w *walker) isPoolGet(call *ast.CallExpr) bool {
	return w.isPoolMethod(call, "Get") || w.isPoolMethod(call, "GetSlot")
}

// poolPutArg returns the buffer argument of (*bufpool.Pool).Put(buf) or
// PutSlot(k, buf), nil for any other call.
func (w *walker) poolPutArg(call *ast.CallExpr) ast.Expr {
	switch {
	case w.isPoolMethod(call, "Put") && len(call.Args) == 1:
		return call.Args[0]
	case w.isPoolMethod(call, "PutSlot") && len(call.Args) == 2:
		return call.Args[1]
	}
	return nil
}

func (w *walker) isPoolMethod(call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "bufpool") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// transferSinks lists (package path suffix, function name) pairs whose
// callee takes payload ownership: the simulated network hands the buffer to
// the receiver, which recycles it after decode.
var transferSinks = [...][2]string{
	{"netsim", "Send"},
}

func (w *walker) isTransferCall(call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	for _, s := range transferSinks {
		if fn.Name() == s[1] && strings.HasSuffix(fn.Pkg().Path(), s[0]) {
			return true
		}
	}
	return false
}

// resultIsByteSlice reports whether the call has exactly one result of type
// []byte (the append-style encoder shape ownership can flow through).
func resultIsByteSlice(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}
