package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"imitator/internal/analysis"
)

// fixtureSrc exercises the directive grammar end to end: end-of-line and
// own-line suppression, missing-reason rejection and an unknown key.
const fixtureSrc = `package fixture

func boom() {}

func suppressedEOL() {
	boom() //imitator:dummy-ok covered by setup
}

func suppressedOwnLine() {
	//imitator:dummy-ok reasoned, on its own line
	boom()
}

func reasonless() {
	boom() //imitator:dummy-ok
}

func unsuppressed() {
	boom()
}

//imitator:mystery some words
func typo() {}
`

// dummyAnalyzer flags every call to boom; its directive grammar mirrors the
// real analyzers (suppression key "dummy").
func dummyAnalyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "dummy",
		Directive: "dummy",
		Doc:       "flags calls to boom (directive-grammar test analyzer)",
		Run: func(p *analysis.Pass) error {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "boom" {
							p.Reportf(call.Pos(), "boom call")
						}
					}
					return true
				})
			}
			return nil
		},
	}
}

func loadFixture(t *testing.T) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", fixtureSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	pkg, err := analysis.CheckFiles(fset, nil, "fixture", []*ast.File{f})
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	return pkg
}

func TestDirectiveGrammar(t *testing.T) {
	pkg := loadFixture(t)
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{dummyAnalyzer()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	type finding struct {
		analyzer string
		line     int
	}
	var got []finding
	for _, d := range diags {
		got = append(got, finding{d.Analyzer, pkg.Fset.Position(d.Pos).Line})
	}

	// Line numbers refer to fixtureSrc: the reasonless directive sits on
	// line 15 and fails to suppress the boom on the same line; the plain
	// boom is on line 19; the unknown key on line 22.
	want := []finding{
		{"dummy", 15},     // reasonless directive suppresses nothing
		{"directive", 15}, // ... and is itself flagged for the missing reason
		{"dummy", 19},     // unsuppressed call survives
		{"directive", 22}, // unknown key "mystery"
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The suppressed calls (lines 6 and 11) must not appear at all.
	for _, f := range got {
		if f.analyzer == "dummy" && (f.line == 6 || f.line == 11) {
			t.Errorf("suppressed call at line %d was still reported", f.line)
		}
	}
}

func TestMissingReasonMessage(t *testing.T) {
	pkg := loadFixture(t)
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{dummyAnalyzer()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "directive requires a reason") {
			found = true
		}
	}
	if !found {
		t.Errorf("no missing-reason diagnostic in %v", diags)
	}
}

func TestUnknownKeyListsKnownKeys(t *testing.T) {
	pkg := loadFixture(t)
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{dummyAnalyzer()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "unknown directive imitator:mystery") {
			continue
		}
		found = true
		// The message must name the valid vocabulary so a typo is fixable
		// from the diagnostic alone.
		if !strings.Contains(d.Message, "dummy-ok") {
			t.Errorf("unknown-key message %q does not list dummy-ok", d.Message)
		}
	}
	if !found {
		t.Errorf("no unknown-key diagnostic in %v", diags)
	}
}

// TestInPackages covers the pattern shapes a scoped analyzer uses: full
// import paths (narrowing's defaults) and fixture short names.
func TestInPackages(t *testing.T) {
	defaults := []string{"imitator/internal/core", "imitator/internal/graph"}
	for _, tc := range []struct {
		path string
		pkgs []string
		want bool
	}{
		{"imitator/internal/graph", defaults, true},
		{"example.com/x/imitator/internal/core", defaults, true},
		{"detsim", []string{"detsim"}, true},
		{"testdata/src/detsim", []string{"detsim"}, true},
		{"nonsim", []string{"detsim"}, false},
		{"imitator/internal/other", defaults, false},
		{"imitator/internal/coreutil", defaults, false},
		{"imitator/internal/core_test", defaults, false},
		{"imitator/internal/graph", nil, false},
	} {
		if got := analysis.InPackages(tc.path, tc.pkgs); got != tc.want {
			t.Errorf("InPackages(%q, %q) = %v, want %v", tc.path, tc.pkgs, got, tc.want)
		}
	}
}
