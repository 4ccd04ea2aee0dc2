package experiments

import (
	"flag"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
)

func small() Options {
	o := Defaults()
	o.Small = true
	o.Nodes = 4
	o.Iters = 4
	return o
}

// parsePct turns "+12.34%" into 0.1234.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percent %q: %v", s, err)
	}
	return v / 100
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Fields(s)[0], 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

var update = flag.Bool("update", false, "rewrite testdata/all_small.golden from this run")

const goldenPath = "testdata/all_small.golden"

// TestAllExperimentsRunSmall runs every experiment at the small() profile
// and compares the rendered tables, byte for byte, to the checked-in golden:
// every figure is a deterministic simulator output, so any drift is a
// semantic change. After an intended change (a new experiment, a cost-model
// fix) regenerate with
//
//	go test ./internal/experiments/ -run TestAllExperimentsRunSmall -update
//
// and review the diff; never to make an engine refactor pass.
func TestAllExperimentsRunSmall(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	// Render ends every table with a blank line and prints none inside one.
	golden := map[string]string{}
	for _, block := range strings.SplitAfter(string(data), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(block, "== "), ":"); ok {
			golden[id] = block
		}
	}
	var all strings.Builder
	ran := 0
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(small())
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != e.ID {
				t.Errorf("table id %q under experiment id %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("row width %d != header %d: %v", len(row), len(tab.Header), row)
				}
			}
			var sb strings.Builder
			tab.Render(&sb)
			all.WriteString(sb.String())
			ran++
			if !*update && sb.String() != golden[e.ID] {
				t.Errorf("drifted from %s (rerun with -update only if the change is intended)\n--- golden\n%s--- got\n%s",
					goldenPath, golden[e.ID], sb.String())
			}
		})
	}
	switch {
	case ran != len(All()):
		// A -run filter selected some subtests; the file-level checks need all.
	case *update:
		if err := os.WriteFile(goldenPath, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	case len(golden) != ran:
		t.Errorf("%s holds %d tables, All() has %d: stale entries", goldenPath, len(golden), ran)
	}
}

// TestWorkersMoveSimSecondsNotValues pins what Options.Workers documents:
// two Options differing only in Workers compute bit-identical vertex values
// and send the same bytes, but the wider one reports fewer simulated seconds
// (the cost model's Amdahl term takes the simulated width). The figures are
// therefore only comparable at one width, and cmd/bench defaults to 1.
func TestWorkersMoveSimSecondsNotValues(t *testing.T) {
	g, err := datasets.Load("gweb")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *core.Result[float64] {
		o := small()
		o.Workers = workers
		cfg := withREP(baseEdgeCut(o), 1)
		cfg.MaxIter = o.Iters
		cfg.Chaos = oneFailure(o.Iters)
		cl, err := core.NewCluster(cfg, g, algorithms.NewPageRank(g.NumVertices()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, two := run(1), run(2)
	if !slices.Equal(one.Values, two.Values) {
		t.Error("vertex values depend on Options.Workers")
	}
	if a, b := one.Metrics.TotalBytes(), two.Metrics.TotalBytes(); a != b {
		t.Errorf("message bytes depend on Options.Workers: %d vs %d", a, b)
	}
	if two.SimSeconds >= one.SimSeconds {
		t.Errorf("SimSeconds %v at 2 workers, %v at 1: if the width has become time-neutral, "+
			"say so in the Options.Workers comment and the -workers flag help", two.SimSeconds, one.SimSeconds)
	}
}

// TestFig7Shape checks the paper's headline result at small scale: REP
// overhead is tiny while CKPT overhead is large.
func TestFig7Shape(t *testing.T) {
	tab, err := Fig7RuntimeOverheadEdgeCut(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		rep := parsePct(t, row[2])
		ck := parsePct(t, row[3])
		if rep > 0.15 {
			t.Errorf("%s: REP overhead %.1f%% too high", row[0], rep*100)
		}
		if ck < 3*rep {
			t.Errorf("%s: CKPT overhead %.2f%% not well above REP's %.2f%%", row[0], ck*100, rep*100)
		}
		if ck < 0.10 {
			t.Errorf("%s: CKPT overhead %.1f%% implausibly low", row[0], ck*100)
		}
	}
}

// TestTable2Shape: both replication recoveries beat checkpoint recovery.
func TestTable2Shape(t *testing.T) {
	tab, err := Table2RecoveryEdgeCut(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ck := parseF(t, row[1])
		reb := parseF(t, row[2])
		mig := parseF(t, row[3])
		if reb >= ck || mig >= ck {
			t.Errorf("%s: recovery not faster than CKPT: ckpt=%v reb=%v mig=%v", row[0], ck, reb, mig)
		}
	}
}

// TestFig8Shape: the selfish optimization reduces redundant messages.
func TestFig8Shape(t *testing.T) {
	tab, err := Fig8SelfishOptimization(small())
	if err != nil {
		t.Fatal(err)
	}
	reduced := false
	for _, row := range tab.Rows {
		with := parsePct(t, row[3])
		without := parsePct(t, row[4])
		if with > without {
			t.Errorf("%s: optimization increased redundant messages", row[0])
		}
		if with < without {
			reduced = true
		}
	}
	if !reduced {
		t.Error("optimization reduced nothing on any workload")
	}
}

// TestFig2aShape: a checkpoint costs a significant fraction of an iteration.
func TestFig2aShape(t *testing.T) {
	tab, err := Fig2aCheckpointCost(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		iter := parseF(t, row[1])
		ck := parseF(t, row[2])
		if ck <= 0 {
			t.Errorf("%s: zero checkpoint cost", row[0])
		}
		if ck < 0.3*iter {
			t.Errorf("%s: checkpoint %.4fs under 30%% of iteration %.4fs — shape broken", row[0], ck, iter)
		}
	}
}

// TestFig11Shape: overhead grows with k but stays bounded.
func TestFig11Shape(t *testing.T) {
	tab, err := Fig11MultiFailureEdgeCut(small())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, row := range tab.Rows {
		oh := parsePct(t, row[1])
		if oh < prev-0.02 {
			t.Errorf("overhead fell sharply between k levels: %v -> %v", prev, oh)
		}
		prev = oh
		// The Small profile uses a 4-node cluster where K=3 replicates
		// no-replica vertices everywhere, so the bound is loose here; the
		// full-scale suite lands under 10% as in the paper.
		if oh > 0.9 {
			t.Errorf("k=%s overhead %.1f%% unbounded", row[0], oh*100)
		}
	}
}

// TestTable3Shape: memory grows monotonically with k.
func TestTable3Shape(t *testing.T) {
	tab, err := Table3MemoryEdgeCut(small())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, row := range tab.Rows {
		total := parseF(t, row[2])
		if total < prev {
			t.Errorf("memory shrank with more FT: %v -> %v", prev, total)
		}
		prev = total
	}
}

// TestYoungShape: replication's efficiency dominates checkpointing's.
func TestYoungShape(t *testing.T) {
	tab, err := YoungModelEfficiency(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatal("want 2 rows")
	}
	ck := parseF(t, strings.TrimSuffix(tab.Rows[0][3], "%"))
	rep := parseF(t, strings.TrimSuffix(tab.Rows[1][3], "%"))
	if rep <= ck {
		t.Errorf("REP efficiency %.2f%% not above CKPT's %.2f%%", rep, ck)
	}
}
