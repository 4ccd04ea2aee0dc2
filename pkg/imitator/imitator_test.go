package imitator_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"imitator/internal/core"
	"imitator/pkg/imitator"
)

func ring(t *testing.T, n int) *imitator.Graph {
	t.Helper()
	edges := make([]imitator.Edge, 0, 2*n)
	for i := 0; i < n; i++ {
		edges = append(edges,
			imitator.Edge{Src: imitator.VertexID(i), Dst: imitator.VertexID((i + 1) % n), Weight: 1},
			imitator.Edge{Src: imitator.VertexID(i), Dst: imitator.VertexID((i + 7) % n), Weight: 1},
		)
	}
	g, err := imitator.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewDefaults pins the facade's defaults to the engine's DefaultConfig
// so the two entrypoints can never drift apart silently.
func TestNewDefaults(t *testing.T) {
	got := imitator.New()
	want := core.DefaultConfig(core.EdgeCutMode, 8)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("New() = %+v, want DefaultConfig = %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("New() does not validate: %v", err)
	}
}

// TestNewModeDefaultPartitioner checks the partitioner tracks the final
// mode regardless of option order, and that an explicit choice wins.
func TestNewModeDefaultPartitioner(t *testing.T) {
	if p := imitator.New().Partitioner; p != imitator.PartHash {
		t.Errorf("edge-cut default partitioner = %v, want hash", p)
	}
	if p := imitator.New(imitator.WithMode(imitator.VertexCutMode)).Partitioner; p != imitator.PartHybrid {
		t.Errorf("vertex-cut default partitioner = %v, want hybrid", p)
	}
	cfg := imitator.New(
		imitator.WithPartitioner(imitator.PartGrid),
		imitator.WithMode(imitator.VertexCutMode),
	)
	if cfg.Partitioner != imitator.PartGrid {
		t.Errorf("explicit partitioner overridden: %v", cfg.Partitioner)
	}
}

func TestOptions(t *testing.T) {
	cfg := imitator.New(
		imitator.WithMode(imitator.VertexCutMode),
		imitator.WithNodes(6),
		imitator.WithIterations(17),
		imitator.WithWorkers(4),
		imitator.WithFTStrategy(imitator.Migration(
			imitator.ReplicationK(2), imitator.ReplicationSelfish(false))),
		imitator.WithMaxRebirths(9),
		imitator.WithFailures(
			imitator.Crash(3, imitator.FailBeforeBarrier, 1, 4),
			imitator.Crash(5, imitator.FailAfterBarrier, 2),
		),
	)
	if cfg.Mode != imitator.VertexCutMode || cfg.NumNodes != 6 || cfg.MaxIter != 17 {
		t.Errorf("mode/nodes/iters wrong: %+v", cfg)
	}
	if cfg.WorkersPerNode != 4 {
		t.Errorf("WorkersPerNode = %d, want 4", cfg.WorkersPerNode)
	}
	if cfg.FT.K != 2 || cfg.FT.SelfishOpt {
		t.Errorf("FT wrong: %+v", cfg.FT)
	}
	if cfg.Recovery != imitator.RecoverMigration || cfg.MaxRebirths != 9 {
		t.Errorf("recovery wrong: %v/%d", cfg.Recovery, cfg.MaxRebirths)
	}
	if len(cfg.Chaos) != 2 ||
		cfg.Chaos[0].Iteration != 3 || len(cfg.Chaos[0].Nodes) != 2 ||
		cfg.Chaos[1].Phase != imitator.FailAfterBarrier {
		t.Errorf("failures wrong: %+v", cfg.Chaos)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("composed config invalid: %v", err)
	}
}

func TestCheckpointOptions(t *testing.T) {
	cfg := imitator.New(imitator.WithFTStrategy(imitator.Checkpoint(3)))
	if cfg.Recovery != imitator.RecoverCheckpoint || cfg.Checkpoint.Interval != 3 {
		t.Errorf("Checkpoint(3) wrong: %+v", cfg)
	}
}

// TestRunEndToEnd drives the whole facade path: build graph, configure a
// failing run, survive it, and read the results back — without touching
// internal packages.
func TestRunEndToEnd(t *testing.T) {
	g := ring(t, 200)
	cfg := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(8),
		imitator.WithWorkers(2),
		imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1))),
		imitator.WithFailures(imitator.Crash(4, imitator.FailBeforeBarrier, 2)),
	)
	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != g.NumVertices() {
		t.Fatalf("%d values for %d vertices", len(res.Values), g.NumVertices())
	}
	var sum float64
	for _, v := range res.Values {
		sum += v
	}
	if math.Abs(sum-float64(g.NumVertices())) > 1e-6 {
		t.Errorf("PageRank mass %g, want %d", sum, g.NumVertices())
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Kind != "rebirth" {
		t.Fatalf("recoveries = %+v, want one rebirth", res.Recoveries)
	}
	if res.SimSeconds <= 0 || res.Iterations != 8 {
		t.Errorf("sim %.3f s, %d iterations", res.SimSeconds, res.Iterations)
	}
}

// TestRunMatchesCore checks the facade is a zero-cost wrapper: the same
// configuration through pkg/imitator and through internal/core produces
// identical values and traffic.
func TestRunMatchesCore(t *testing.T) {
	g := ring(t, 150)
	cfg := imitator.New(
		imitator.WithMode(imitator.VertexCutMode),
		imitator.WithNodes(4),
		imitator.WithIterations(6),
		imitator.WithFTStrategy(imitator.Migration()),
		imitator.WithFailures(imitator.Crash(3, imitator.FailBeforeBarrier, 1)),
	)
	facade, err := imitator.Run(cfg, g, imitator.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster[float64, float64](cfg, g, imitator.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := range facade.Values {
		if facade.Values[v] != direct.Values[v] {
			t.Fatalf("vertex %d: facade %g != core %g", v, facade.Values[v], direct.Values[v])
		}
	}
	if facade.Metrics.TotalBytes() != direct.Metrics.TotalBytes() {
		t.Errorf("traffic differs: %d != %d",
			facade.Metrics.TotalBytes(), direct.Metrics.TotalBytes())
	}
}

func TestWorkloadAndTimeline(t *testing.T) {
	cfg := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(3),
		imitator.WithFailures(imitator.Crash(1, imitator.FailBeforeBarrier, 1)),
	)
	g, err := imitator.LoadDataset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	s, err := imitator.RunWorkloadOn(imitator.Workload{Algo: "cd", Dataset: "dblp", Iters: 3}, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices == 0 || len(s.Trace) == 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	var sb strings.Builder
	imitator.RenderTimeline(&sb, s.Trace)
	if !strings.Contains(sb.String(), "recovery") {
		t.Errorf("timeline missing recovery lane:\n%s", sb.String())
	}
	if imitator.TimelineSummary(s.Trace) == "" {
		t.Error("empty timeline summary")
	}
	if _, err := imitator.RunWorkloadOn(imitator.Workload{Algo: "sort", Dataset: "dblp"}, g, cfg); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestDatasetHelpers(t *testing.T) {
	names := imitator.DatasetNames()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	cat := imitator.Datasets()
	for _, n := range names {
		if _, ok := cat[n]; !ok {
			t.Errorf("name %q missing from catalog", n)
		}
	}
	g, err := imitator.LoadDataset(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Error("empty dataset")
	}
	if _, err := imitator.LoadDataset("no-such-dataset"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := imitator.ReadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"), 0); err != nil {
		t.Error(err)
	}
}
