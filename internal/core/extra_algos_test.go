package core_test

import (
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// refCC is a union-find over the "in-reachability" relation used by the CC
// program: label(v) = min label reachable into v... equivalently the min id
// in v's weakly connected component when the graph is symmetric. The test
// graphs are symmetric, so plain union-find is the reference.
func refCC(g *graph.Graph) []int32 {
	parent := make([]int32, g.NumVertices())
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb { // root at the smaller id
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for i := range g.NumEdges() {
		e := g.Edge(i)
		union(int32(e.Src), int32(e.Dst))
	}
	out := make([]int32, g.NumVertices())
	for v := range out {
		out[v] = find(int32(v))
	}
	return out
}

// refKCore iteratively peels vertices with in-degree support below k on a
// symmetric graph.
func refKCore(g *graph.Graph, k int) []bool {
	alive := make([]bool, g.NumVertices())
	deg := make([]int, g.NumVertices())
	for v := range alive {
		alive[v] = true
		deg[v] = g.InDegree(graph.VertexID(v))
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < g.NumVertices(); v++ {
			if !alive[v] || deg[v] >= k {
				continue
			}
			alive[v] = false
			changed = true
			g.OutEdges(graph.VertexID(v), func(_ int, e graph.Edge) {
				deg[e.Dst]--
			})
		}
	}
	return alive
}

// symmetricGraph returns a deterministic symmetric test graph.
func symmetricGraph(n, m int, seed uint64) *graph.Graph {
	base := datasets.Tiny(n, m, seed)
	edges := make([]graph.Edge, 0, 2*base.NumEdges())
	for i := range base.NumEdges() {
		e := base.Edge(i)
		edges = append(edges,
			graph.Edge{Src: e.Src, Dst: e.Dst, Weight: 1},
			graph.Edge{Src: e.Dst, Dst: e.Src, Weight: 1})
	}
	return graph.MustNew(n, edges)
}

func TestCCMatchesUnionFind(t *testing.T) {
	g := symmetricGraph(400, 600, 61) // sparse: several components
	want := refCC(g)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		cfg := baseConfig(mode, 4, 60)
		cl, err := core.NewCluster[int32, int32](cfg, g, algorithms.NewCC())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("%v: vertex %d component %d != %d", mode, v, res.Values[v], want[v])
			}
		}
	}
}

func TestKCoreMatchesPeeling(t *testing.T) {
	g := symmetricGraph(500, 2000, 62)
	const k = 4
	want := refKCore(g, k)
	cfg := baseConfig(core.EdgeCutMode, 4, 80)
	cl, err := core.NewCluster[int32, int32](cfg, g, algorithms.NewKCore(k))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for v := range want {
		gotAlive := res.Values[v] != algorithms.Dead
		if gotAlive != want[v] {
			t.Fatalf("vertex %d: alive=%v, reference=%v", v, gotAlive, want[v])
		}
		if gotAlive {
			survivors++
		}
	}
	if survivors == 0 || survivors == g.NumVertices() {
		t.Fatalf("degenerate k-core: %d survivors of %d", survivors, g.NumVertices())
	}
}

func TestCCRecoveryEquivalence(t *testing.T) {
	g := symmetricGraph(400, 600, 63)
	for _, rec := range []core.RecoveryKind{core.RecoverRebirth, core.RecoverMigration} {
		run := func(fail bool) []int32 {
			cfg := core.DefaultConfig(core.EdgeCutMode, 5)
			cfg.MaxIter = 40
			cfg.Recovery = rec
			if fail {
				cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 2)
			}
			cl, err := core.NewCluster[int32, int32](cfg, g, algorithms.NewCC())
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res.Values
		}
		want := run(false)
		got := run(true)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v: vertex %d: %d != %d", rec, v, got[v], want[v])
			}
		}
	}
}

func TestNewPartitionersRunAndRecover(t *testing.T) {
	g := datasets.Tiny(500, 3000, 64)
	want := refPageRank(g, 5)
	cases := []struct {
		mode core.Mode
		part core.PartitionerKind
		tol  float64
	}{
		{core.EdgeCutMode, core.PartLDG, 0},
		{core.VertexCutMode, core.PartOblivious, 1e-9},
	}
	for _, tc := range cases {
		cfg := core.DefaultConfig(tc.mode, 5)
		cfg.Partitioner = tc.part
		cfg.MaxIter = 5
		cfg.Recovery = core.RecoverMigration
		cfg.Chaos = crashAt(2, core.FailBeforeBarrier, 1)
		res := runPageRank(t, cfg, g)
		valuesEqual(t, tc.part.String(), res.Values, want, 1e-9)
		if len(res.Recoveries) != 1 {
			t.Fatalf("%v: recoveries = %d", tc.part, len(res.Recoveries))
		}
	}
}
