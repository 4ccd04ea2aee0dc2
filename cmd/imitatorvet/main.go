// Command imitatorvet runs the repository's custom static analyzers —
// determinism, bufown, wirebounds, hotalloc, hostrace and narrowing, where
// wirebounds and narrowing are two rules of one taint engine in
// internal/analysis/bounds (see DESIGN.md "Static invariants") — over Go
// packages. It supports two modes:
//
// Standalone (what CI runs; loads and type-checks packages itself):
//
//	go run ./cmd/imitatorvet ./...
//	imitatorvet -json ./...
//
// Vet tool (the go/analysis unitchecker protocol, driven by the go
// command, which passes a *.cfg JSON file per package):
//
//	go install ./cmd/imitatorvet
//	go vet -vettool=$(which imitatorvet) ./...
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"imitator/internal/analysis"
	"imitator/internal/analysis/bounds"
	"imitator/internal/analysis/bufown"
	"imitator/internal/analysis/determinism"
	"imitator/internal/analysis/hostrace"
	"imitator/internal/analysis/hotalloc"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.New(determinism.DefaultSimPackages),
		bufown.New(),
		bounds.Wirebounds(),
		hotalloc.New(),
		hostrace.New(),
		bounds.Narrowing(),
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main minus process concerns: output goes to out so tests can
// assert the JSON shape.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("imitatorvet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	flagsMode := fs.Bool("flags", false, "print flag descriptions (vet protocol)")
	fs.Var(versionFlag{}, "V", "print version and exit (vet protocol)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *flagsMode {
		// The go command interrogates vet tools for their flags; ours
		// carries none it needs to forward.
		fmt.Fprintln(out, "[]")
		return 0
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitcheck(rest[0], *jsonOut, out)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return standalone(rest, *jsonOut, out)
}

// standalone loads packages via the go command and analyzes all of them.
func standalone(patterns []string, jsonOut bool, out io.Writer) int {
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imitatorvet:", err)
		return 1
	}
	total := 0
	byPkg := map[string]map[string][]jsonDiag{}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, "imitatorvet:", err)
			return 1
		}
		total += len(diags)
		emit(pkg.Fset, pkg.Path, diags, jsonOut, byPkg)
	}
	if jsonOut {
		printJSON(out, byPkg)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "imitatorvet: %d diagnostic(s)\n", total)
		return 2
	}
	return 0
}

// vetConfig is the subset of the go vet .cfg file the tool consumes,
// mirroring x/tools' unitchecker.Config.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package described by a go vet config file.
func unitcheck(cfgPath string, jsonOut bool, out io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imitatorvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "imitatorvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The protocol requires an output file (facts for dependent packages);
	// these analyzers are fact-free, so an empty placeholder suffices.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("imitatorvet: no facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "imitatorvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imitatorvet:", err)
			return 1
		}
		files = append(files, f)
	}
	// Imports resolve through the export data the go command already
	// compiled, exactly as cmd/vet's own checkers do.
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "source"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := analysis.CheckFiles(fset, imp, cfg.ImportPath, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "imitatorvet:", err)
		return 1
	}
	diags, err := analysis.Run(pkg, analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "imitatorvet:", err)
		return 1
	}
	byPkg := map[string]map[string][]jsonDiag{}
	emit(fset, cfg.ID, diags, jsonOut, byPkg)
	if jsonOut {
		printJSON(out, byPkg)
		return 0
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// jsonDiag matches the go vet JSON diagnostic schema.
type jsonDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// emit prints diagnostics (plain mode) or accumulates them (JSON mode).
func emit(fset *token.FileSet, pkgID string, diags []analysis.Diagnostic, jsonOut bool, byPkg map[string]map[string][]jsonDiag) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if jsonOut {
			m := byPkg[pkgID]
			if m == nil {
				m = map[string][]jsonDiag{}
				byPkg[pkgID] = m
			}
			m[d.Analyzer] = append(m[d.Analyzer], jsonDiag{Posn: pos.String(), Message: d.Message})
		} else {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
	}
}

func printJSON(out io.Writer, byPkg map[string]map[string][]jsonDiag) {
	keys := make([]string, 0, len(byPkg))
	for k := range byPkg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make(map[string]map[string][]jsonDiag, len(byPkg))
	for _, k := range keys {
		ordered[k] = byPkg[k]
	}
	data, _ := json.MarshalIndent(ordered, "", "\t")
	fmt.Fprintln(out, string(data))
}

// versionFlag implements the -V=full handshake the go command uses to
// fingerprint vet tools for its build cache.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s", s)
	}
	name, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", name, sha256.Sum256(data))
	os.Exit(0)
	return nil
}
