// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.3 and §6) on the scaled datasets. Each Fig*/Table*
// function runs the necessary jobs on the simulated cluster and returns a
// Table whose rows mirror the paper's; cmd/bench and the root benchmark
// suite are thin wrappers around this package.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// Options scales the experiment suite.
type Options struct {
	// Nodes is the simulated cluster size (the paper uses 50; the scaled
	// default is 8 so the suite runs on one machine).
	Nodes int
	// Iters is the PageRank superstep count (the paper uses 20).
	Iters int
	// Workers is the simulated intra-node worker-pool width
	// (Config.WorkersPerNode). Vertex values and message bytes are
	// bit-for-bit independent of it; simulated seconds are not, because the
	// cost model's Amdahl term takes this width. 0 means 1.
	Workers int
	// Small shrinks datasets and sweeps for unit tests.
	Small bool
}

// Defaults returns the standard scaled configuration.
func Defaults() Options { return Options{Nodes: 8, Iters: 10, Workers: 1} }

func (o Options) orDefaults() Options {
	d := Defaults()
	if o.Nodes == 0 {
		o.Nodes = d.Nodes
	}
	if o.Iters == 0 {
		o.Iters = d.Iters
	}
	if o.Workers == 0 {
		o.Workers = d.Workers
	}
	return o
}

// Table is one regenerated table/figure.
type Table struct {
	ID     string // e.g. "fig7", "table2"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Workload pairs an algorithm with its dataset, mirroring Table 1.
type Workload struct {
	Algo    string
	Dataset string
	Iters   int
}

// EdgeCutWorkloads returns the paper's Table 1 pairs (Cyclops evaluation).
func EdgeCutWorkloads(o Options) []Workload {
	o = o.orDefaults()
	w := []Workload{
		{Algo: "pagerank", Dataset: "gweb", Iters: o.Iters},
		{Algo: "pagerank", Dataset: "ljournal", Iters: o.Iters},
		{Algo: "pagerank", Dataset: "wiki", Iters: o.Iters},
		{Algo: "als", Dataset: "syn-gl", Iters: o.Iters},
		{Algo: "cd", Dataset: "dblp", Iters: o.Iters},
		{Algo: "sssp", Dataset: "roadca", Iters: 4 * o.Iters},
	}
	if o.Small {
		w = []Workload{
			{Algo: "pagerank", Dataset: "gweb", Iters: 4},
			{Algo: "cd", Dataset: "dblp", Iters: 4},
		}
	}
	return w
}

// VertexCutDatasets returns the Table 4 dataset list (PowerLyra evaluation).
func VertexCutDatasets(o Options) []string {
	if o.Small {
		return []string{"gweb", "alpha-2.2"}
	}
	return []string{"gweb", "ljournal", "wiki", "uk", "twitter",
		"alpha-2.2", "alpha-2.1", "alpha-2.0", "alpha-1.9", "alpha-1.8"}
}

// RunWorkload executes one workload under cfg on its catalog dataset.
func RunWorkload(w Workload, cfg core.Config) (core.RunSummary, error) {
	g, err := datasets.Load(w.Dataset)
	if err != nil {
		return core.RunSummary{}, err
	}
	return RunWorkloadOn(w, g, cfg)
}

// RunWorkloadOn executes one workload under cfg on an explicit graph (e.g.
// one loaded from a file).
func RunWorkloadOn(w Workload, g *graph.Graph, cfg core.Config) (core.RunSummary, error) {
	h, err := start(w, g, cfg)
	if err != nil {
		return core.RunSummary{}, err
	}
	return h.Wait()
}

// Base configurations.

func baseEdgeCut(o Options) core.Config {
	cfg := core.DefaultConfig(core.EdgeCutMode, o.Nodes)
	cfg.Recovery = core.RecoverNone
	cfg.WorkersPerNode = workersOf(o)
	return cfg
}

func baseVertexCut(o Options) core.Config {
	cfg := core.DefaultConfig(core.VertexCutMode, o.Nodes)
	cfg.Recovery = core.RecoverNone
	cfg.WorkersPerNode = workersOf(o)
	return cfg
}

// workersOf guards against callers that build Options literals without
// going through orDefaults.
func workersOf(o Options) int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func withREP(cfg core.Config, k int) core.Config {
	cfg.FT = core.FTConfig{K: k, SelfishOpt: true}
	cfg.Recovery = core.RecoverRebirth
	cfg.MaxRebirths = 8
	return cfg
}

func withCKPT(cfg core.Config, interval int, inMemory bool) core.Config {
	cfg.Checkpoint = core.CheckpointConfig{Interval: interval, InMemory: inMemory}
	cfg.Recovery = core.RecoverCheckpoint
	cfg.MaxRebirths = 8
	return cfg
}

func withLogged(cfg core.Config, compactEvery int) core.Config {
	cfg.Logged = core.LoggedConfig{CompactEvery: compactEvery}
	cfg.Recovery = core.RecoverLogged
	cfg.MaxRebirths = 8
	return cfg
}

// Formatting helpers.

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }

func overhead(base, with float64) float64 {
	if base == 0 {
		return 0
	}
	return (with - base) / base
}

func mb(bytes int64) string { return fmt.Sprintf("%.1f MB", float64(bytes)/1e6) }

// oneFailure schedules a single mid-run failure of node 1.
func oneFailure(iters int) []core.ChaosEvent {
	at := iters / 2
	if at < 1 {
		at = 1
	}
	return []core.ChaosEvent{{Kind: core.ChaosCrash, Iteration: at, Phase: core.FailBeforeBarrier, Nodes: []int{1}}}
}

// nFailures schedules n simultaneous failures mid-run.
func nFailures(iters, n int) []core.ChaosEvent {
	at := iters / 2
	if at < 1 {
		at = 1
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i + 1
	}
	return []core.ChaosEvent{{Kind: core.ChaosCrash, Iteration: at, Phase: core.FailBeforeBarrier, Nodes: nodes}}
}

// lastRecovery returns the final recovery's stats or a zero value.
func lastRecovery(s core.RunSummary) core.RecoveryReport {
	if len(s.Recoveries) == 0 {
		return core.RecoveryReport{}
	}
	return s.Recoveries[len(s.Recoveries)-1]
}
