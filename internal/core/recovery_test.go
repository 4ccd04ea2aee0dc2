package core_test

import (
	"errors"
	"math"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/gen"
	"imitator/internal/graph"
)

// ftConfig builds a config for the given recovery strategy with its
// parameters: K replicas, or snapshots every two supersteps.
func ftConfig(mode core.Mode, numNodes, iters, k int, recovery core.RecoveryKind) core.Config {
	cfg := core.DefaultConfig(mode, numNodes)
	cfg.MaxIter = iters
	cfg.FT.K = k
	cfg.Recovery = recovery
	cfg.MaxRebirths = 8
	cfg.Checkpoint = core.CheckpointConfig{Interval: 2}
	return cfg
}

// crashAt builds a one-event chaos schedule fail-stopping nodes at an
// iteration boundary.
func crashAt(iter int, phase core.FailPhase, nodes ...int) []core.ChaosEvent {
	return []core.ChaosEvent{{Kind: core.ChaosCrash, Iteration: iter, Phase: phase, Nodes: nodes}}
}

// valuesEqual compares float64 value vectors, exactly or with relative
// tolerance.
func valuesEqual(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for v := range want {
		if tol == 0 {
			if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("%s: vertex %d: %v != %v", label, v, got[v], want[v])
			}
			continue
		}
		if math.IsInf(want[v], 1) {
			if !math.IsInf(got[v], 1) {
				t.Fatalf("%s: vertex %d: %v != +Inf", label, v, got[v])
			}
			continue
		}
		if math.Abs(got[v]-want[v]) > tol*(1+math.Abs(want[v])) {
			t.Fatalf("%s: vertex %d: %v != %v (tol %g)", label, v, got[v], want[v], tol)
		}
	}
}

func runPR(t *testing.T, cfg core.Config, g *graph.Graph) *core.Result[float64] {
	t.Helper()
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runSP(t *testing.T, cfg core.Config, g *graph.Graph) *core.Result[float64] {
	t.Helper()
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewSSSP(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecoveryEquivalence is the paper's core claim: a failure plus
// recovery yields the same answer as a failure-free run, for every engine
// mode x recovery strategy x algorithm style. SSSP also runs on a weighted
// input, since every other graph here has unit weights.
func TestRecoveryEquivalence(t *testing.T) {
	g := datasets.Tiny(600, 3600, 77)
	road := mixedWeightRoad(t)
	cases := []struct {
		name     string
		mode     core.Mode
		recovery core.RecoveryKind
		tol      float64 // 0 = exact
	}{
		{"edgecut/rebirth", core.EdgeCutMode, core.RecoverRebirth, 0},
		{"edgecut/migration", core.EdgeCutMode, core.RecoverMigration, 0},
		{"edgecut/checkpoint", core.EdgeCutMode, core.RecoverCheckpoint, 0},
		{"vertexcut/rebirth", core.VertexCutMode, core.RecoverRebirth, 0},
		{"vertexcut/migration", core.VertexCutMode, core.RecoverMigration, 1e-9},
		{"vertexcut/checkpoint", core.VertexCutMode, core.RecoverCheckpoint, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run("pagerank/"+tc.name, func(t *testing.T) {
			base := ftConfig(tc.mode, 6, 8, 1, tc.recovery)
			want := runPR(t, base, g)
			withFail := base
			withFail.Chaos = crashAt(4, core.FailBeforeBarrier, 2)
			got := runPR(t, withFail, g)
			valuesEqual(t, tc.name, got.Values, want.Values, tc.tol)
			if len(got.Recoveries) != 1 {
				t.Fatalf("expected 1 recovery, got %d", len(got.Recoveries))
			}
			r := got.Recoveries[0]
			if tc.recovery != core.RecoverCheckpoint && r.RecoveredVertices == 0 {
				t.Error("no vertices recovered")
			}
			if r.TotalSeconds() <= 0 {
				t.Error("recovery accounted no simulated time")
			}
		})
		for _, in := range []struct {
			name string
			g    *graph.Graph
		}{{"sssp/", g}, {"sssp-weighted/", road}} {
			t.Run(in.name+tc.name, func(t *testing.T) {
				base := ftConfig(tc.mode, 6, 40, 1, tc.recovery)
				want := runSP(t, base, in.g)
				withFail := base
				withFail.Chaos = crashAt(3, core.FailBeforeBarrier, 1)
				got := runSP(t, withFail, in.g)
				valuesEqual(t, tc.name, got.Values, want.Values, 0) // min-folds are exact
			})
		}
	}
}

// mixedWeightRoad is a small log-normally weighted road network in which the
// in-edges of every fourth vertex and every third edge weigh exactly 1, so
// in-edge lists come all-unit, mixed and unit-free: recovery must carry each
// kind bit for bit.
func mixedWeightRoad(t *testing.T) *graph.Graph {
	t.Helper()
	base, err := gen.Road(gen.RoadConfig{Width: 25, Height: 24, ShortcutFrac: 0.1, WeightMu: 0.4, WeightSigma: 1.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]graph.Edge, 0, base.NumEdges())
	base.EachEdge(func(i int, e graph.Edge) {
		if e.Dst%4 == 0 || i%3 == 0 {
			e.Weight = 1
		}
		edges = append(edges, e)
	})
	return graph.MustNew(base.NumVertices(), edges)
}

func TestRecoveryEquivalenceCD(t *testing.T) {
	g, err := datasets.Load("dblp")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		mode     core.Mode
		recovery core.RecoveryKind
	}{
		{"edgecut/rebirth", core.EdgeCutMode, core.RecoverRebirth},
		{"edgecut/migration", core.EdgeCutMode, core.RecoverMigration},
		{"vertexcut/rebirth", core.VertexCutMode, core.RecoverRebirth},
		{"vertexcut/migration", core.VertexCutMode, core.RecoverMigration},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(cfg core.Config) []int32 {
				cl, err := core.NewCluster[int32, []core.LabelCount](cfg, g, algorithms.NewCD())
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res.Values
			}
			base := ftConfig(tc.mode, 5, 10, 1, tc.recovery)
			want := run(base)
			withFail := base
			withFail.Chaos = crashAt(3, core.FailBeforeBarrier, 2)
			got := run(withFail)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d label %d != %d", v, got[v], want[v])
				}
			}
		})
	}
}

func TestRecoveryEquivalenceALS(t *testing.T) {
	g, err := datasets.Load("syn-gl")
	if err != nil {
		t.Fatal(err)
	}
	prog := algorithms.NewALS(7000, 4, 0.05)
	run := func(cfg core.Config) [][]float64 {
		cl, err := core.NewCluster[[]float64, []float64](cfg, g, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	for _, tc := range []struct {
		name     string
		mode     core.Mode
		recovery core.RecoveryKind
		tol      float64
	}{
		{"edgecut/rebirth", core.EdgeCutMode, core.RecoverRebirth, 0},
		{"edgecut/migration", core.EdgeCutMode, core.RecoverMigration, 0},
		{"vertexcut/migration", core.VertexCutMode, core.RecoverMigration, 1e-6},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := ftConfig(tc.mode, 4, 6, 1, tc.recovery)
			want := run(base)
			withFail := base
			withFail.Chaos = crashAt(2, core.FailBeforeBarrier, 0)
			got := run(withFail)
			for v := range want {
				for i := range want[v] {
					diff := math.Abs(got[v][i] - want[v][i])
					if diff > tc.tol*(1+math.Abs(want[v][i])) {
						t.Fatalf("vertex %d factor %d: %v != %v", v, i, got[v][i], want[v][i])
					}
				}
			}
		})
	}
}

func TestFailureAfterBarrier(t *testing.T) {
	g := datasets.Tiny(500, 3000, 78)
	for _, rec := range []core.RecoveryKind{core.RecoverRebirth, core.RecoverMigration} {
		base := ftConfig(core.EdgeCutMode, 5, 8, 1, rec)
		want := runPR(t, base, g)
		withFail := base
		withFail.Chaos = crashAt(4, core.FailAfterBarrier, 3)
		got := runPR(t, withFail, g)
		valuesEqual(t, rec.String(), got.Values, want.Values, 0)
	}
}

func TestFailureAtIterationZero(t *testing.T) {
	g := datasets.Tiny(400, 2400, 79)
	for _, rec := range []core.RecoveryKind{core.RecoverRebirth, core.RecoverMigration} {
		base := ftConfig(core.VertexCutMode, 4, 6, 1, rec)
		want := runSP(t, base, g)
		withFail := base
		withFail.Chaos = crashAt(0, core.FailBeforeBarrier, 2)
		got := runSP(t, withFail, g)
		valuesEqual(t, rec.String(), got.Values, want.Values, 0)
	}
}

func TestMultipleSimultaneousFailures(t *testing.T) {
	g := datasets.Tiny(800, 4800, 80)
	for _, tc := range []struct {
		mode core.Mode
		rec  core.RecoveryKind
		tol  float64
	}{
		{core.EdgeCutMode, core.RecoverRebirth, 0},
		{core.EdgeCutMode, core.RecoverMigration, 0},
		{core.VertexCutMode, core.RecoverRebirth, 0},
		{core.VertexCutMode, core.RecoverMigration, 1e-9},
	} {
		base := ftConfig(tc.mode, 8, 8, 3, tc.rec)
		want := runPR(t, base, g)
		withFail := base
		withFail.Chaos = crashAt(4, core.FailBeforeBarrier, 1, 4, 6)
		got := runPR(t, withFail, g)
		valuesEqual(t, tc.mode.String()+"/"+tc.rec.String(), got.Values, want.Values, tc.tol)
	}
}

func TestSequentialFailures(t *testing.T) {
	// Two failures at different iterations: the second recovery relies on
	// the FT invariants re-established by the first (Migration's repair).
	g := datasets.Tiny(700, 4200, 81)
	for _, tc := range []struct {
		mode core.Mode
		rec  core.RecoveryKind
		tol  float64
	}{
		{core.EdgeCutMode, core.RecoverRebirth, 0},
		{core.EdgeCutMode, core.RecoverMigration, 0},
		{core.VertexCutMode, core.RecoverMigration, 1e-9},
	} {
		base := ftConfig(tc.mode, 6, 10, 1, tc.rec)
		want := runPR(t, base, g)
		withFail := base
		withFail.Chaos = []core.ChaosEvent{
			{Kind: core.ChaosCrash, Iteration: 3, Phase: core.FailBeforeBarrier, Nodes: []int{1}},
			{Kind: core.ChaosCrash, Iteration: 7, Phase: core.FailBeforeBarrier, Nodes: []int{4}},
		}
		got := runPR(t, withFail, g)
		valuesEqual(t, tc.mode.String()+"/"+tc.rec.String(), got.Values, want.Values, tc.tol)
		if len(got.Recoveries) != 2 {
			t.Fatalf("expected 2 recoveries, got %d", len(got.Recoveries))
		}
	}
}

func TestUnrecoverableBeyondK(t *testing.T) {
	g := datasets.Tiny(800, 4800, 82)
	cfg := ftConfig(core.EdgeCutMode, 6, 6, 1, core.RecoverRebirth)
	cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 1, 2) // two failures, K=1
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestStandbyExhaustion(t *testing.T) {
	g := datasets.Tiny(300, 1800, 83)
	cfg := ftConfig(core.EdgeCutMode, 4, 6, 1, core.RecoverRebirth)
	cfg.MaxRebirths = 0
	cfg.Chaos = crashAt(2, core.FailBeforeBarrier, 1)
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestFailureDuringRecovery(t *testing.T) {
	// A second node dies while the first recovery is in flight; the
	// procedure restarts with the union (§5.3.2).
	g := datasets.Tiny(700, 4200, 84)
	base := ftConfig(core.EdgeCutMode, 6, 8, 2, core.RecoverRebirth)
	want := runPR(t, base, g)

	cfg := base
	cfg.Chaos = append(crashAt(3, core.FailBeforeBarrier, 1),
		core.ChaosEvent{Kind: core.ChaosCrashDuringRecovery, During: "rebirth:reload", Nodes: []int{4}})
	res := runPR(t, cfg, g)
	valuesEqual(t, "during-recovery", res.Values, want.Values, 0)
	if last := res.Recoveries[len(res.Recoveries)-1]; len(last.Failed) != 2 {
		t.Fatalf("final recovery covered %v, want both victims", last.Failed)
	}
}

func TestCheckpointRecoveryReplays(t *testing.T) {
	g := datasets.Tiny(500, 3000, 85)
	cfg := ftConfig(core.EdgeCutMode, 5, 9, 1, core.RecoverCheckpoint)
	cfg.Checkpoint.Interval = 3
	cfg.Chaos = crashAt(7, core.FailBeforeBarrier, 2)
	got := runPR(t, cfg, g)
	if len(got.Recoveries) != 1 {
		t.Fatalf("recoveries = %d", len(got.Recoveries))
	}
	r := got.Recoveries[0]
	// Failure at iter 7, last snapshot at 6: one lost iteration replayed.
	if r.ReplayIters != 1 {
		t.Errorf("ReplayIters = %d, want 1", r.ReplayIters)
	}
	if r.ReplaySeconds <= 0 {
		t.Error("replay time not accounted")
	}
	base := cfg
	base.Chaos = nil
	want := runPR(t, base, g)
	valuesEqual(t, "ckpt", got.Values, want.Values, 0)
}

func TestCheckpointOverheadAccounting(t *testing.T) {
	g := datasets.Tiny(500, 3000, 86)
	plain := runPR(t, baseConfig(core.EdgeCutMode, 5, 8), g)
	cfg := baseConfig(core.EdgeCutMode, 5, 8)
	cfg.Recovery = core.RecoverCheckpoint
	cfg.Checkpoint = core.CheckpointConfig{Interval: 1}
	ck := runPR(t, cfg, g)
	if ck.Strategy.PersistCount != 8 {
		t.Errorf("PersistCount = %d, want 8", ck.Strategy.PersistCount)
	}
	if ck.Strategy.PersistSeconds <= 0 {
		t.Error("checkpoint time not accounted")
	}
	if ck.SimSeconds <= plain.SimSeconds {
		t.Error("checkpointing should cost simulated time")
	}
	// In-memory HDFS should be cheaper than disk (Fig 7).
	cfgMem := cfg
	cfgMem.Checkpoint.InMemory = true
	mem := runPR(t, cfgMem, g)
	if mem.Strategy.PersistSeconds >= ck.Strategy.PersistSeconds {
		t.Errorf("in-memory checkpoint %.4fs not below disk %.4fs",
			mem.Strategy.PersistSeconds, ck.Strategy.PersistSeconds)
	}
}

func TestRebirthVsMigrationRecoveredCounts(t *testing.T) {
	g := datasets.Tiny(600, 3600, 87)
	cfg := ftConfig(core.EdgeCutMode, 6, 8, 1, core.RecoverRebirth)
	cfg.Chaos = crashAt(4, core.FailBeforeBarrier, 2)
	reb := runPR(t, cfg, g)
	cfgM := ftConfig(core.EdgeCutMode, 6, 8, 1, core.RecoverMigration)
	cfgM.Chaos = crashAt(4, core.FailBeforeBarrier, 2)
	mig := runPR(t, cfgM, g)
	// Rebirth recovers every entry of the lost node; migration only
	// promotes masters and creates the replicas it is missing.
	if reb.Recoveries[0].RecoveredVertices <= mig.Recoveries[0].RecoveredVertices {
		t.Errorf("rebirth recovered %d <= migration's %d",
			reb.Recoveries[0].RecoveredVertices, mig.Recoveries[0].RecoveredVertices)
	}
}

func TestSelfishOptimizationReducesMessages(t *testing.T) {
	// A graph with many selfish vertices: FT sync traffic must drop when
	// the optimization is on (Fig 8b).
	g, err := datasets.Load("gweb")
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt bool) *core.Result[float64] {
		cfg := core.DefaultConfig(core.EdgeCutMode, 6)
		cfg.MaxIter = 4
		cfg.FT.SelfishOpt = opt
		return runPR(t, cfg, g)
	}
	with := run(true)
	without := run(false)
	if with.Metrics.FTMsgs >= without.Metrics.FTMsgs {
		t.Errorf("selfish opt did not reduce FT messages: %d vs %d",
			with.Metrics.FTMsgs, without.Metrics.FTMsgs)
	}
	// And results must agree exactly despite skipped syncs.
	valuesEqual(t, "selfish", with.Values, without.Values, 0)
}

func TestSelfishOptEquivalenceUnderFailure(t *testing.T) {
	g, err := datasets.Load("gweb")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []core.RecoveryKind{core.RecoverRebirth, core.RecoverMigration} {
		base := core.DefaultConfig(core.EdgeCutMode, 6)
		base.MaxIter = 7
		base.Recovery = rec
		want := runPR(t, base, g)
		withFail := base
		withFail.Chaos = crashAt(3, core.FailBeforeBarrier, 2)
		got := runPR(t, withFail, g)
		valuesEqual(t, "selfish/"+rec.String(), got.Values, want.Values, 0)
	}
}
