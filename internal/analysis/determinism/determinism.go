// Package determinism enforces the repository's bit-for-bit replay
// invariant inside simulation packages: no wall-clock reads, no global
// math/rand state, and no map iteration whose visit order can leak into
// ordered engine state (message emission, cost accumulation, traces).
//
// The replication scheme this repo reproduces (Imitator, DSN 2014) depends
// on replicas being consistent backups of their masters; ROADMAP.md pins
// the stronger engineering form of that property — sim_seconds/msg_bytes
// identical across optimizations. A single `range m` feeding a send buffer
// silently breaks it, so the check runs at vet time.
//
// A map range is accepted without annotation when its body only aggregates
// commutatively: counters, op-assign accumulations, writes into other maps,
// constant-only early returns (the ∃/∀ membership idiom) and local
// derivations. Anything else — append, method calls, non-constant returns —
// needs either a rewrite (sort the keys first) or a justification:
//
//	//imitator:nondet-ok <reason>
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"imitator/internal/analysis"
)

// DefaultSimPackages lists the packages whose state feeds simulated time,
// message bytes or traces. cmd/ and examples/ run on wall clocks and are
// deliberately out of scope.
var DefaultSimPackages = []string{
	"imitator/internal/chaos",
	"imitator/internal/core",
	"imitator/internal/netsim",
	"imitator/internal/coord",
	"imitator/internal/costmodel",
	"imitator/internal/dfs",
	// The FT-log codec's bytes are replayed during recovery and compared
	// bit-for-bit across worker counts, so it must stay deterministic.
	"imitator/internal/ftlog",
	// The SWIM detector's probe order, suspicion timing and piggyback
	// traffic are simulation outputs (membership bench invariants), so
	// the whole protocol must stay seeded-deterministic.
	"imitator/internal/gossip",
	"imitator/internal/partition",
	// The omission-fault layer draws per-link fates from internal/rng, so
	// its state now feeds retransmit counts and simulated time too.
	"imitator/internal/rng",
	// The PR-7 parallel era: host scheduling must never consult wall
	// clocks or global rand (bit-identity at every width depends on it),
	// and the sharded generators derive every byte from seeded streams.
	"imitator/internal/hostpar",
	"imitator/internal/gen",
}

// New returns the determinism analyzer scoped to the given package paths
// (matched by analysis.InPackages).
func New(simPackages []string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name:      "determinism",
		Directive: "nondet",
		Doc: "forbid wall-clock reads, global math/rand and order-leaking map " +
			"iteration in simulation packages",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !analysis.InPackages(pass.Pkg.Path(), simPackages) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, n)
				case *ast.RangeStmt:
					checkRange(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// wallClockFuncs are the time package reads that observe the host clock.
// Timers and tickers are caught transitively: they are built from these.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "After": true, "AfterFunc": true,
}

// seededConstructors are the math/rand package-level functions that build
// explicitly-seeded generators — the approved route to randomness.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// checkCall flags wall-clock reads and global math/rand use. Methods on an
// explicitly seeded *rand.Rand are fine; the package-level convenience
// functions share hidden global state and are not.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, (time.Time).Sub) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a simulation package; derive time from the simulated clock (costmodel.Clock)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s uses the global generator; use internal/rng or an explicitly seeded *rand.Rand so runs replay bit-for-bit", fn.Name())
		}
	}
}

// checkRange flags `range m` over a map unless the body provably aggregates
// commutatively.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if commutativeBody(pass.TypesInfo, rng.Body) {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is random and this body does not aggregate commutatively; iterate sorted keys, restructure, or annotate //imitator:nondet-ok <reason>")
}

// commutativeBody reports whether every statement in the block is invariant
// under iteration-order permutation, per the conservative grammar in the
// package doc.
func commutativeBody(info *types.Info, block *ast.BlockStmt) bool {
	for _, s := range block.List {
		if !commutativeStmt(info, s) {
			return false
		}
	}
	return true
}

func commutativeStmt(info *types.Info, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			return true
		case token.DEFINE:
			// A pure local derivation is harmless by itself; an
			// order-dependent *use* of it is caught where it happens.
			return true
		case token.ASSIGN:
			// Writes keyed into another map commute (one write per key);
			// every other plain assignment can capture "the last visited
			// element" and is rejected.
			for _, lhs := range s.Lhs {
				if !mapIndexOrBlank(info, lhs) {
					return false
				}
			}
			return true
		}
		return false
	case *ast.ExprStmt:
		// Only the delete builtin: set-subtraction commutes.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !commutativeStmt(info, s.Init) {
			return false
		}
		if !commutativeBody(info, s.Body) {
			return false
		}
		if s.Else != nil {
			return commutativeStmt(info, s.Else)
		}
		return true
	case *ast.BlockStmt:
		return commutativeBody(info, s)
	case *ast.ReturnStmt:
		// Constant-only returns express ∃/∀ over the map — which element
		// triggered them is unobservable. (Approximation: a constant return
		// can skip later commutative updates to captured state; the escape
		// hatch for such code is the annotation.)
		for _, r := range s.Results {
			if !constantExpr(info, r) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	}
	return false
}

// mapIndexOrBlank reports whether an assignment target is m[k] or _.
func mapIndexOrBlank(info *types.Info, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return true
	}
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// constantExpr reports whether e is a literal, a named constant, or nil.
func constantExpr(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if _, ok := e.(*ast.BasicLit); ok {
		return true
	}
	if id, ok := e.(*ast.Ident); ok {
		switch info.Uses[id].(type) {
		case *types.Const, *types.Nil:
			return true
		}
	}
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	return false
}
