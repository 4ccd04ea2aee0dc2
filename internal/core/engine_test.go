package core_test

import (
	"container/heap"
	"math"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// refPageRank mirrors the engine's PageRank semantics exactly, including
// the in-edge fold order.
func refPageRank(g *graph.Graph, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1.0
	}
	damping := 0.85 // runtime arithmetic, matching Apply's (1-damping) bit-for-bit
	for t := 0; t < iters; t++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			sum := 0.0
			g.InEdges(graph.VertexID(v), func(_ int, e graph.Edge) {
				if d := g.OutDegree(e.Src); d > 0 {
					sum += rank[e.Src] / float64(d)
				}
			})
			next[v] = (1 - damping) + damping*sum
		}
		rank = next
	}
	return rank
}

// refSSSP is Dijkstra over the weighted graph.
func refSSSP(g *graph.Graph, source graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[source] = 0
	pq := &distHeap{{v: source, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue
		}
		g.OutEdges(item.v, func(_ int, e graph.Edge) {
			if nd := item.d + e.Weight; nd < dist[e.Dst] {
				dist[e.Dst] = nd
				heap.Push(pq, distItem{v: e.Dst, d: nd})
			}
		})
	}
	return dist
}

type distItem struct {
	v graph.VertexID
	d float64
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// baseConfig returns an FT-less configuration for correctness baselines.
func baseConfig(mode core.Mode, numNodes, iters int) core.Config {
	cfg := core.DefaultConfig(mode, numNodes)
	cfg.Recovery = core.RecoverNone
	cfg.MaxIter = iters
	return cfg
}

func runPageRank(t *testing.T, cfg core.Config, g *graph.Graph) *core.Result[float64] {
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

func TestPageRankEdgeCutMatchesReference(t *testing.T) {
	g := datasets.Tiny(500, 3000, 21)
	want := refPageRank(g, 5)
	for _, nodes := range []int{1, 4, 7} {
		res := runPageRank(t, baseConfig(core.EdgeCutMode, nodes, 5), g)
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("%d nodes: vertex %d rank %v != reference %v", nodes, v, res.Values[v], want[v])
			}
		}
	}
}

func TestPageRankVertexCutMatchesReference(t *testing.T) {
	g := datasets.Tiny(500, 3000, 22)
	want := refPageRank(g, 5)
	for _, part := range []core.PartitionerKind{core.PartRandom, core.PartGrid, core.PartHybrid} {
		cfg := baseConfig(core.VertexCutMode, 4, 5)
		cfg.Partitioner = part
		res := runPageRank(t, cfg, g)
		for v := range want {
			if math.Abs(res.Values[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
				t.Fatalf("%v: vertex %d rank %v != reference %v", part, v, res.Values[v], want[v])
			}
		}
	}
}

func TestPageRankWithFTMatchesWithoutFT(t *testing.T) {
	// FT replicas and mirror sync must not perturb results.
	g := datasets.Tiny(400, 2400, 23)
	plain := runPageRank(t, baseConfig(core.EdgeCutMode, 4, 5), g)
	cfg := core.DefaultConfig(core.EdgeCutMode, 4)
	cfg.MaxIter = 5
	withFT := runPageRank(t, cfg, g)
	for v := range plain.Values {
		if plain.Values[v] != withFT.Values[v] {
			t.Fatalf("vertex %d: FT changed rank %v -> %v", v, plain.Values[v], withFT.Values[v])
		}
	}
	if withFT.ExtraReplicas == 0 {
		t.Error("expected some FT replicas on a graph with no-replica vertices")
	}
}

func runSSSP(t *testing.T, cfg core.Config, g *graph.Graph, src graph.VertexID) *core.Result[float64] {
	t.Helper()
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewSSSP(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := datasets.Tiny(300, 2000, 31)
	want := refSSSP(g, 7)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		cfg := baseConfig(mode, 5, 80) // enough supersteps to converge
		res := runSSSP(t, cfg, g, 7)
		for v := range want {
			if res.Values[v] != want[v] {
				t.Fatalf("%v: vertex %d dist %v != dijkstra %v", mode, v, res.Values[v], want[v])
			}
		}
	}
}

func TestSSSPActivationConverges(t *testing.T) {
	// After convergence, iterations should stop doing work: compare message
	// counts for extra supersteps.
	g := datasets.Tiny(200, 1000, 32)
	short := runSSSP(t, baseConfig(core.EdgeCutMode, 4, 60), g, 3)
	long := runSSSP(t, baseConfig(core.EdgeCutMode, 4, 90), g, 3)
	extra := long.Metrics.SyncMsgs - short.Metrics.SyncMsgs
	if extra != 0 {
		t.Errorf("converged SSSP still sent %d sync messages in extra supersteps", extra)
	}
}

func TestCDDistributionInvariant(t *testing.T) {
	g, err := datasets.Load("dblp")
	if err != nil {
		t.Fatal(err)
	}
	run := func(nodes int, mode core.Mode) []int32 {
		cfg := baseConfig(mode, nodes, 15)
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
	ref := run(1, core.EdgeCutMode)
	got := run(5, core.EdgeCutMode)
	for v := range ref {
		if ref[v] != got[v] {
			t.Fatalf("vertex %d label differs across cluster sizes: %d vs %d", v, ref[v], got[v])
		}
	}
	gotVC := run(4, core.VertexCutMode)
	for v := range ref {
		if ref[v] != gotVC[v] {
			t.Fatalf("vertex %d label differs edge-cut vs vertex-cut: %d vs %d", v, ref[v], gotVC[v])
		}
	}
	// Label propagation on a community graph must coarsen communities.
	labels := map[int32]bool{}
	for _, l := range ref {
		labels[l] = true
	}
	if len(labels) >= g.NumVertices()/2 {
		t.Errorf("CD found %d communities for %d vertices; no coarsening", len(labels), g.NumVertices())
	}
}

func alsRMSE(g *graph.Graph, numUsers int, values [][]float64) float64 {
	var se float64
	var n int
	for i := range g.NumEdges() {
		e := g.Edge(i)
		if int(e.Src) >= numUsers { // count each rating once (user->item)
			continue
		}
		var dot float64
		for i := range values[e.Src] {
			dot += values[e.Src][i] * values[e.Dst][i]
		}
		d := dot - e.Weight
		se += d * d
		n++
	}
	return math.Sqrt(se / float64(n))
}

func TestALSReducesRMSE(t *testing.T) {
	g, err := datasets.Load("syn-gl")
	if err != nil {
		t.Fatal(err)
	}
	const numUsers = 7000
	prog := algorithms.NewALS(numUsers, 8, 0.05)
	run := func(iters int) [][]float64 {
		cfg := baseConfig(core.EdgeCutMode, 4, iters)
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
	early := alsRMSE(g, numUsers, run(2))
	late := alsRMSE(g, numUsers, run(8))
	if !(late < early) {
		t.Errorf("ALS RMSE did not improve: %v -> %v", early, late)
	}
	if late > 1.2 {
		t.Errorf("ALS final RMSE %v implausibly high", late)
	}
}

func TestSimulatedTimeAdvances(t *testing.T) {
	g := datasets.Tiny(300, 1500, 41)
	res := runPageRank(t, baseConfig(core.EdgeCutMode, 4, 5), g)
	if res.SimSeconds <= 0 || res.AvgIterSeconds <= 0 {
		t.Errorf("sim time not accounted: total %v avg %v", res.SimSeconds, res.AvgIterSeconds)
	}
	if len(res.Trace) != 5 {
		t.Errorf("expected 5 iteration trace events, got %d", len(res.Trace))
	}
}

func TestMemoryAccounting(t *testing.T) {
	g := datasets.Tiny(300, 1500, 42)
	cfg := core.DefaultConfig(core.EdgeCutMode, 4)
	cfg.MaxIter = 2
	res := runPageRank(t, cfg, g)
	if res.TotalMemory <= 0 || res.MaxMemory <= 0 {
		t.Error("memory accounting missing")
	}
	if res.MaxMemory > res.TotalMemory {
		t.Error("max per-node memory exceeds total")
	}
	// FT/2 must use more memory than FT/1.
	cfg2 := cfg
	cfg2.FT.K = 2
	res2 := runPageRank(t, cfg2, g)
	if res2.TotalMemory <= res.TotalMemory {
		t.Errorf("FT/2 memory %d not above FT/1's %d", res2.TotalMemory, res.TotalMemory)
	}
}

func TestConfigValidation(t *testing.T) {
	g := datasets.Tiny(50, 200, 43)
	bad := []func(*core.Config){
		func(c *core.Config) { c.NumNodes = 0 },
		func(c *core.Config) { c.MaxIter = 0 },
		func(c *core.Config) { c.Partitioner = core.PartRandom }, // edge-cut + vertex partitioner
		func(c *core.Config) { c.FT.K = 0 },
		func(c *core.Config) { c.FT.K = 4 }, // >= NumNodes
		func(c *core.Config) { c.Recovery = core.RecoverCheckpoint },
		func(c *core.Config) {
			c.Chaos = crashAt(99, core.FailBeforeBarrier, 1)
		},
		func(c *core.Config) {
			c.Chaos = crashAt(1, 0, 1) // no phase
		},
		func(c *core.Config) {
			c.FT = core.FTConfig{}
			c.Recovery = core.RecoverRebirth
		},
	}
	for i, mutate := range bad {
		cfg := core.DefaultConfig(core.EdgeCutMode, 4)
		cfg.MaxIter = 3
		mutate(&cfg)
		if _, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices())); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSelfishOptRequiresAlwaysActive(t *testing.T) {
	// A program that claims selfish recompute but is not always-active must
	// be rejected; SSSP legitimately reports CanRecomputeSelfish=false, so
	// build a contrived wrapper via config instead: selfish opt with SSSP
	// is simply ineffective, not an error.
	g := datasets.Tiny(50, 200, 44)
	cfg := core.DefaultConfig(core.EdgeCutMode, 4)
	cfg.MaxIter = 3
	if _, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewSSSP(0)); err != nil {
		t.Fatalf("SSSP with selfish opt configured should load (opt ignored): %v", err)
	}
}
