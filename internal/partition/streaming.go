package partition

import (
	"math"

	"imitator/internal/graph"
	"imitator/internal/rng"
)

// LDG's published parameters (Stanton & Kliot, KDD'12 — the paper's
// reference [19]): balance slack nu (per-node capacity = nu * |V|/p) and
// the stream-order shuffle seed.
const (
	ldgNu   = 1.1
	ldgSeed = 1
)

// LDGEdgeCut streams vertices and assigns each to the partition holding the
// most neighbors, weighted by the partition's remaining capacity:
// score_i = |N(v) ∩ P_i| * (1 - |P_i|/C).
func LDGEdgeCut(g *graph.Graph, numNodes int) (*EdgeCut, error) {
	if err := checkNodes(numNodes); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	p := numNodes
	capacity := ldgNu * float64(n) / float64(p)
	if capacity < 1 {
		capacity = 1
	}

	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	sizes := make([]int, p)
	neighborCount := make([]float64, p)

	order := rng.New(ldgSeed).Perm(n)
	for _, vi := range order {
		v := graph.VertexID(vi)
		for i := range neighborCount {
			neighborCount[i] = 0
		}
		count := func(u graph.VertexID) {
			if o := owner[u]; o >= 0 {
				neighborCount[o]++
			}
		}
		g.InEdges(v, func(_ int, e graph.Edge) { count(e.Src) })
		g.OutEdges(v, func(_ int, e graph.Edge) { count(e.Dst) })

		best, bestScore := 0, math.Inf(-1)
		for i := 0; i < p; i++ {
			penalty := 1 - float64(sizes[i])/capacity
			if penalty < 0 {
				penalty = 0
			}
			// +1 smoothing keeps empty-neighborhood vertices flowing to
			// the emptiest partition.
			score := (neighborCount[i] + 1) * penalty
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		owner[v] = int32(best)
		sizes[best]++
	}
	return &EdgeCut{NumNodes: numNodes, Owner: owner}, nil
}

// ObliviousVertexCut implements PowerGraph's greedy ("oblivious") vertex
// cut: each edge goes to a node already hosting both endpoints, else one
// hosting either (the less loaded on ties), else the least-loaded node.
// State is per-streaming-pass; no global coordination.
func ObliviousVertexCut(g *graph.Graph, numNodes int) (*VertexCut, error) {
	if err := checkNodes(numNodes); err != nil {
		return nil, err
	}
	vc := newVertexCut(g, numNodes)
	present := make([]uint64, g.NumVertices()) // node bitmask per vertex
	load := make([]int, numNodes)

	leastLoaded := func(mask uint64) int {
		best := -1
		for i := 0; i < numNodes; i++ {
			if mask != 0 && mask&(1<<uint(i)) == 0 {
				continue
			}
			if best < 0 || load[i] < load[best] {
				best = i
			}
		}
		return best
	}
	// Oblivious is a streaming greedy: each placement depends on all earlier
	// ones, so the loop stays sequential (EachEdge avoids materializing the
	// flat edge view).
	g.EachEdge(func(i int, e graph.Edge) {
		su, sv := present[e.Src], present[e.Dst]
		var target int
		switch {
		case su&sv != 0: // both endpoints share a node
			target = leastLoaded(su & sv)
		case su != 0 && sv != 0: // disjoint: place with the higher-degree end
			if g.OutDegree(e.Src)+g.InDegree(e.Src) > g.OutDegree(e.Dst)+g.InDegree(e.Dst) {
				target = leastLoaded(sv)
			} else {
				target = leastLoaded(su)
			}
		case su != 0:
			target = leastLoaded(su)
		case sv != 0:
			target = leastLoaded(sv)
		default:
			target = leastLoaded(0)
		}
		vc.EdgeOwner[i] = int32(target)
		load[target]++
		present[e.Src] |= 1 << uint(target)
		present[e.Dst] |= 1 << uint(target)
	})
	return vc, nil
}
