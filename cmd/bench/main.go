// Command bench regenerates the paper's evaluation tables and figures on
// the simulated cluster and prints them as text tables. Everything it prints
// is a deterministic simulation output: the same flags give the same bytes
// on every host. Host wall clock, allocations and latency percentiles are
// measured by benchmark/ (bash benchmark/run.sh); to profile a figure use
// go test -bench=BenchmarkFig7 -cpuprofile.
//
// Examples:
//
//	bench -all                     # every experiment (several minutes)
//	bench -figure 7                # Fig 7: runtime overhead, edge-cut
//	bench -table 2                 # Table 2: recovery times, edge-cut
//	bench -table membership        # ids without a fig/table prefix work under either flag
//	bench -figure 2a -small        # quick scaled-down run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"imitator/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		all     = fs.Bool("all", false, "run every experiment")
		figure  = fs.String("figure", "", "figure to regenerate (2a, 2b, 2c, 3, 7, 8, 9, 10, 11, 12, 13, 14, 15) or any experiment id")
		table   = fs.String("table", "", "table to regenerate (1, 2, 3, 5, 6, 7, young, ftcompare, ablation-mirror, ablation-positional, membership, scale)")
		nodes   = fs.Int("nodes", 8, "simulated cluster size")
		iters   = fs.Int("iters", 10, "PageRank iterations")
		workers = fs.Int("workers", 1, "simulated intra-node worker-pool width (vertex values are identical for any value; simulated seconds shrink with it)")
		small   = fs.Bool("small", false, "shrink datasets and sweeps for a quick pass")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{Nodes: *nodes, Iters: *iters, Workers: *workers, Small: *small}

	exps := experiments.All()
	if !*all {
		prefix, id := "fig", *figure
		if id == "" {
			prefix, id = "table", *table
		}
		if id == "" {
			fs.Usage()
			return fmt.Errorf("pass -all, -figure or -table")
		}
		// The prefixed id first ("7" -> "fig7"), then the id verbatim
		// ("young", "ablation-mirror", "fig7").
		sel := find(exps, prefix+id)
		if sel == nil {
			sel = find(exps, id)
		}
		if sel == nil {
			var known []string
			for _, e := range exps {
				known = append(known, e.ID)
			}
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, " "))
		}
		exps = sel
	}
	for _, e := range exps {
		t, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		t.Render(out)
	}
	return nil
}

// find returns the one-element slice of exps holding the experiment id, or nil.
func find(exps []experiments.Experiment, id string) []experiments.Experiment {
	for i, e := range exps {
		if e.ID == id {
			return exps[i : i+1]
		}
	}
	return nil
}
