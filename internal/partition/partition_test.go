package partition

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"imitator/internal/datasets"
	"imitator/internal/gen"
	"imitator/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return datasets.Tiny(2000, 12000, 42)
}

func TestHashEdgeCutOwnership(t *testing.T) {
	g := testGraph(t)
	ec, err := HashEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	for _, o := range ec.Owner {
		if o < 0 || o >= 8 {
			t.Fatalf("owner %d out of range", o)
		}
		counts[o]++
	}
	// Hash partitioning should be roughly balanced.
	for i, c := range counts {
		if c < 150 || c > 350 {
			t.Errorf("node %d holds %d masters, want ~250", i, c)
		}
	}
}

func TestHashEdgeCutNodeRange(t *testing.T) {
	g := testGraph(t)
	if _, err := HashEdgeCut(g, 0); err == nil {
		t.Error("expected error for 0 nodes")
	}
	if _, err := HashEdgeCut(g, 65); err == nil {
		t.Error("expected error for 65 nodes")
	}
	if _, err := HashEdgeCut(g, 1); err != nil {
		t.Errorf("1 node should be allowed: %v", err)
	}
}

func TestEdgeCutMasksIncludeMasterAndConsumers(t *testing.T) {
	// 0->1 with owners on different nodes: vertex 0 must be present on
	// owner(1)'s node as a replica.
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	ec := &EdgeCut{NumNodes: 2, Owner: []int32{0, 1}}
	masks := ec.Masks(g)
	if masks[0] != 0b11 {
		t.Errorf("vertex 0 mask = %b, want 11 (master node0 + replica node1)", masks[0])
	}
	if masks[1] != 0b10 {
		t.Errorf("vertex 1 mask = %b, want 10 (master only)", masks[1])
	}
}

func TestFennelReducesReplication(t *testing.T) {
	// Fennel should beat hash partitioning on replication factor for a
	// community-structured graph (Fig 10a shows large reductions).
	g, err := gen.Community(gen.CommunityConfig{
		NumVertices: 3000, NumCommunities: 30, IntraDegree: 8, InterDegree: 0.3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := HashEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	fennel, err := FennelEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	hf := hash.Stats(g).ReplicationFactor
	ff := fennel.Stats(g).ReplicationFactor
	if ff >= hf {
		t.Errorf("fennel RF %.3f not below hash RF %.3f", ff, hf)
	}
}

func TestFennelBalance(t *testing.T) {
	g := testGraph(t)
	ec, err := FennelEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, 8)
	for _, o := range ec.Owner {
		sizes[o]++
	}
	capacity := int(fennelNu * float64(g.NumVertices()) / 8)
	for i, s := range sizes {
		if s > capacity+1 {
			t.Errorf("node %d holds %d masters, above capacity %d", i, s, capacity)
		}
	}
}

func TestFennelValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := FennelEdgeCut(g, 0); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestRandomVertexCutCoversEdges(t *testing.T) {
	g := testGraph(t)
	vc, err := RandomVertexCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(vc.EdgeOwner) != g.NumEdges() {
		t.Fatalf("EdgeOwner len %d != %d", len(vc.EdgeOwner), g.NumEdges())
	}
	counts := make([]int, 8)
	for _, o := range vc.EdgeOwner {
		if o < 0 || o >= 8 {
			t.Fatalf("edge owner %d out of range", o)
		}
		counts[o]++
	}
	for i, c := range counts {
		want := g.NumEdges() / 8
		if c < want*7/10 || c > want*13/10 {
			t.Errorf("node %d holds %d edges, want ~%d", i, c, want)
		}
	}
}

func TestGridVertexCutConstraint(t *testing.T) {
	g := testGraph(t)
	const p = 16 // 4x4 grid
	vc, err := GridVertexCut(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// Replication factor bounded by 2*sqrt(p)-1 = 7.
	rf := vc.Stats(g).ReplicationFactor
	if rf > 7 {
		t.Errorf("grid-cut RF %.2f exceeds 2*sqrt(p)-1 = 7", rf)
	}
	// Every edge must be owned by a node in the candidate sets of both
	// endpoints (row ∪ column of home cells).
	cols := 4
	cell := func(v graph.VertexID) (int, int) {
		h := int(hashVertex(v) % uint64(p))
		return h / cols, h % cols
	}
	for i := range g.NumEdges() {
		e := g.Edge(i)
		o := int(vc.EdgeOwner[i])
		or, oc := o/cols, o%cols
		sr, sc := cell(e.Src)
		dr, dc := cell(e.Dst)
		inSrcSet := or == sr || oc == sc
		inDstSet := or == dr || oc == dc
		if !inSrcSet || !inDstSet {
			t.Fatalf("edge %d owner (%d,%d) outside constraint sets src(%d,%d) dst(%d,%d)",
				i, or, oc, sr, sc, dr, dc)
		}
	}
}

func TestGridOrdering(t *testing.T) {
	// Grid-cut should have lower RF than random-cut on a skewed graph
	// (Fig 14a: random 15.96, grid 8.34, hybrid 5.56).
	g := datasets.Tiny(4000, 40000, 11)
	r, _ := RandomVertexCut(g, 16)
	gr, _ := GridVertexCut(g, 16)
	hy, _ := HybridVertexCut(g, 16, DefaultHybridCutConfig())
	rrf := r.Stats(g).ReplicationFactor
	grf := gr.Stats(g).ReplicationFactor
	hrf := hy.Stats(g).ReplicationFactor
	if !(hrf < grf && grf < rrf) {
		t.Errorf("want hybrid < grid < random, got %.2f %.2f %.2f", hrf, grf, rrf)
	}
}

func TestHybridValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := HybridVertexCut(g, 4, HybridCutConfig{Threshold: 0}); err == nil {
		t.Error("expected error for zero threshold")
	}
}

func TestHybridLowDegreePlacement(t *testing.T) {
	// For a low-degree destination all its in-edges must land on one node.
	g := datasets.Tiny(1000, 4000, 5)
	vc, err := HybridVertexCut(g, 8, HybridCutConfig{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(graph.VertexID(v)) == 0 || g.InDegree(graph.VertexID(v)) > 10 {
			continue
		}
		var nodes []int32
		g.InEdges(graph.VertexID(v), func(i int, _ graph.Edge) {
			nodes = append(nodes, vc.EdgeOwner[i])
		})
		for _, n := range nodes[1:] {
			if n != nodes[0] {
				t.Fatalf("low-degree vertex %d has in-edges on nodes %v", v, nodes)
			}
		}
	}
}

func TestVertexCutMasksContainMasterAndEdges(t *testing.T) {
	g := testGraph(t)
	vc, err := HybridVertexCut(g, 8, DefaultHybridCutConfig())
	if err != nil {
		t.Fatal(err)
	}
	masks := vc.Masks(g)
	for v, m := range masks {
		if m&(1<<uint(vc.Master[v])) == 0 {
			t.Fatalf("vertex %d mask misses master node", v)
		}
	}
	for i := range g.NumEdges() {
		e := g.Edge(i)
		bit := uint64(1) << uint(vc.EdgeOwner[i])
		if masks[e.Src]&bit == 0 || masks[e.Dst]&bit == 0 {
			t.Fatalf("edge %d endpoints not present on owning node", i)
		}
	}
}

func TestStatsNoReplicaSplit(t *testing.T) {
	// Graph: 0->1 (same node), 2 isolated. With 2 nodes and everything on
	// node 0: all three vertices have no replicas; only 1 and 2 are
	// selfish (1 has no out-edges, 2 is isolated).
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	ec := &EdgeCut{NumNodes: 2, Owner: []int32{0, 0, 0}}
	s := ec.Stats(g)
	if s.NoReplicaTotal != 3 {
		t.Errorf("NoReplicaTotal = %d, want 3", s.NoReplicaTotal)
	}
	if s.NoReplicaSelfish != 2 {
		t.Errorf("NoReplicaSelfish = %d, want 2", s.NoReplicaSelfish)
	}
	if s.ReplicationFactor != 1 {
		t.Errorf("RF = %v, want 1", s.ReplicationFactor)
	}
}

// Property: every partitioning keeps the replication factor >= 1 and every
// vertex present somewhere; every edge is assigned exactly once.
func TestPartitionInvariants(t *testing.T) {
	f := func(seed uint64, nodesRaw uint8) bool {
		numNodes := 1 + int(nodesRaw%16)
		g := datasets.Tiny(300, 1500, seed)
		ec, err := HashEdgeCut(g, numNodes)
		if err != nil {
			return false
		}
		vcs := make([]*VertexCut, 0, 3)
		if vc, err := RandomVertexCut(g, numNodes); err == nil {
			vcs = append(vcs, vc)
		}
		if vc, err := GridVertexCut(g, numNodes); err == nil {
			vcs = append(vcs, vc)
		}
		if vc, err := HybridVertexCut(g, numNodes, DefaultHybridCutConfig()); err == nil {
			vcs = append(vcs, vc)
		}
		if len(vcs) != 3 {
			return false
		}
		for _, m := range ec.Masks(g) {
			if m == 0 || bits.OnesCount64(m) > numNodes {
				return false
			}
		}
		for _, vc := range vcs {
			if vc.Stats(g).ReplicationFactor < 1 {
				return false
			}
			for _, o := range vc.EdgeOwner {
				if o < 0 || int(o) >= numNodes {
					return false
				}
			}
			for _, m := range vc.Masks(g) {
				if m == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeDegenerate(t *testing.T) {
	g := datasets.Tiny(100, 400, 3)
	ec, err := HashEdgeCut(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := ec.Stats(g)
	if s.ReplicationFactor != 1 {
		t.Errorf("single node RF = %v, want 1", s.ReplicationFactor)
	}
	if s.NoReplicaTotal != g.NumVertices() {
		t.Errorf("all vertices should lack replicas on 1 node")
	}
}

// TestPartitionWidthInvariance: the hash-style partitioners fill their
// assignments from hostpar.Blocks bodies that each write only their own
// range, so the result must not depend on the host width. The graph has
// more than two parMinBlock blocks of vertices and of edges, so width 2
// splits every loop.
func TestPartitionWidthInvariance(t *testing.T) {
	g := datasets.Tiny(2*parMinBlock+1000, 2*parMinBlock+5000, 11)
	assign := func(width int) [][]int32 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		ec, err := HashEdgeCut(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		out := [][]int32{ec.Owner}
		for _, cut := range []func() (*VertexCut, error){
			func() (*VertexCut, error) { return RandomVertexCut(g, 6) },
			func() (*VertexCut, error) { return GridVertexCut(g, 6) },
			func() (*VertexCut, error) { return HybridVertexCut(g, 6, DefaultHybridCutConfig()) },
		} {
			vc, err := cut()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, vc.Master, vc.EdgeOwner)
		}
		return out
	}
	want, got := assign(1), assign(2)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("assignment %d differs between host widths 1 and 2", i)
		}
	}
}
