package hostpar_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sites lists every non-test file that calls hostpar.For or hostpar.Blocks,
// with its number of calls and the width-invariance tests whose inputs span
// enough shards or blocks to run each of those bodies on more than one
// goroutine. The CI step "Host-parallel bodies under race, repeated" runs
// exactly these tests under -race -count=10; it is the gate on the contract
// that each unit writes only what it owns.
var sites = []struct {
	file  string
	calls int
	tests []string
}{
	{"internal/core/load.go", 8, []string{"TestLoadHostWidthInvariance"}},
	{"internal/gen/parallel.go", 5, []string{"TestParallelPowerLawDeterminism", "TestParallelRoadDeterminism", "TestParallelCommunityDeterminism"}},
	{"internal/graph/graph.go", 2, []string{"TestBuildCSRKeysWidthInvariance"}},
	{"internal/partition/partition.go", 5, []string{"TestPartitionWidthInvariance"}},
}

// TestCallSitesCovered counts the hostpar.For/Blocks calls in every non-test
// file of the module and holds them to sites, so a new call site fails here
// until a test covers it. Each covering test must exist beside the file and
// run in the CI race step over the file's package.
func TestCallSitesCovered(t *testing.T) {
	const root = "../.."
	got := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || exists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir // fixtures, tool state and nested modules
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		n, err := countCalls(path)
		if n > 0 {
			rel, _ := filepath.Rel(root, path)
			got[filepath.ToSlash(rel)] = n
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		if got[s.file] != s.calls {
			t.Errorf("%s makes %d hostpar.For/Blocks calls, the table says %d", s.file, got[s.file], s.calls)
		}
		delete(got, s.file)
		dir := filepath.Dir(s.file)
		for _, test := range s.tests {
			if !definesTest(t, filepath.Join(root, dir), test) {
				t.Errorf("%s: covering test %s is not defined in %s", s.file, test, dir)
			}
			if !raceStepRuns(string(ci), test, dir) {
				t.Errorf("%s: no CI line runs %s under -race over ./%s/", s.file, test, dir)
			}
		}
	}
	for file, n := range got {
		t.Errorf("%s makes %d hostpar.For/Blocks calls that no width-invariance test covers; add it to sites", file, n)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// countCalls parses one file and counts its calls to hostpar.For and
// hostpar.Blocks under whatever names it imports the package.
func countCalls(path string) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return 0, err
	}
	names := map[string]bool{}
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "imitator/internal/hostpar" {
			name := "hostpar"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = true
		}
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] && (sel.Sel.Name == "For" || sel.Sel.Name == "Blocks") {
					n++
				}
			}
		}
		return true
	})
	return n, nil
}

// definesTest reports whether a _test.go file in dir declares func test.
func definesTest(t *testing.T, dir, test string) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ` + test + `\(t \*testing\.T\)`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if decl.Match(src) {
			return true
		}
	}
	return false
}

// raceStepRuns reports whether one line of the workflow runs go test -race
// over ./dir/ with test in its -run pattern.
func raceStepRuns(ci, test, dir string) bool {
	name := regexp.MustCompile(`\b` + test + `\b`)
	for _, line := range strings.Split(ci, "\n") {
		if strings.Contains(line, "go test -race") && strings.Contains(line, "./"+dir+"/") && name.MatchString(line) {
			return true
		}
	}
	return false
}
