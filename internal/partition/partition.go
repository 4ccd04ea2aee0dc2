// Package partition implements the graph partitioning algorithms the paper
// evaluates. Edge-cut partitioners (hash/random and the Fennel streaming
// heuristic) assign vertices to nodes and replicate vertices across cut
// edges, as in Cyclops. Vertex-cut partitioners (Random-cut, Grid-cut and
// PowerLyra's Hybrid-cut) assign edges to nodes and replicate vertices on
// every node holding an adjacent edge.
//
// Replica presence is reported as one bitmask per vertex (bit n = vertex
// present on node n), which bounds cluster sizes at 64 nodes — enough for
// the paper's 50-node setup.
package partition

import (
	"fmt"
	"math"
	"math/bits"

	"imitator/internal/graph"
	"imitator/internal/hostpar"
	"imitator/internal/rng"
)

// parMinBlock is the smallest per-goroutine block for the hash-style
// partitioners; every parallelized assignment below writes only its own
// index, so results are identical for any worker count.
const parMinBlock = 1 << 16

// MaxNodes is the largest supported cluster size (replica masks are uint64).
const MaxNodes = 64

// hashVertex is the vertex placement hash shared by grid-cut homes and
// tests that verify the grid constraint.
func hashVertex(v graph.VertexID) uint64 { return rng.Hash64(uint64(v)) }

func checkNodes(numNodes int) error {
	if numNodes < 1 || numNodes > MaxNodes {
		return fmt.Errorf("partition: node count %d outside [1, %d]", numNodes, MaxNodes)
	}
	return nil
}

// EdgeCut is the result of an edge-cut partitioning: every vertex has a
// master node; every edge lives on the node owning its destination, so a
// master is co-located with all of its in-edges (the Cyclops model).
type EdgeCut struct {
	NumNodes int
	Owner    []int32 // vertex -> master node
}

// HashEdgeCut assigns vertices to nodes by hash — the paper's default
// "random" partitioning.
func HashEdgeCut(g *graph.Graph, numNodes int) (*EdgeCut, error) {
	if err := checkNodes(numNodes); err != nil {
		return nil, err
	}
	owner := make([]int32, g.NumVertices())
	hostpar.Blocks(len(owner), parMinBlock, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			owner[v] = int32(rng.Hash64(uint64(v)) % uint64(numNodes))
		}
	})
	return &EdgeCut{NumNodes: numNodes, Owner: owner}, nil
}

// Fennel's published parameters (Tsourakakis et al., WSDM'14, the
// heuristic evaluated in §6.6): cost exponent gamma, balance slack nu
// (per-node capacity = nu * |V|/p) and the stream-order shuffle seed.
const (
	fennelGamma = 1.5
	fennelNu    = 1.1
	fennelSeed  = 1
)

// FennelEdgeCut streams vertices in random order and greedily assigns each
// to the node maximizing |N(v) ∩ P_i| - alpha*gamma*|P_i|^(gamma-1),
// subject to a capacity cap.
func FennelEdgeCut(g *graph.Graph, numNodes int) (*EdgeCut, error) {
	if err := checkNodes(numNodes); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	m := g.NumEdges()
	p := numNodes
	alpha := float64(m) * math.Pow(float64(p), fennelGamma-1) / math.Pow(float64(n), fennelGamma)
	capacity := int(fennelNu * float64(n) / float64(p))
	if capacity < 1 {
		capacity = 1
	}

	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	sizes := make([]int, p)
	neighborCount := make([]float64, p)

	order := rng.New(fennelSeed).Perm(n)
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

		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < p; i++ {
			if sizes[i] >= capacity {
				continue
			}
			score := neighborCount[i] - alpha*fennelGamma*math.Pow(float64(sizes[i]), fennelGamma-1)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 { // every node at capacity: place on the least loaded
			best = 0
			for i := 1; i < p; i++ {
				if sizes[i] < sizes[best] {
					best = i
				}
			}
		}
		owner[v] = int32(best)
		sizes[best]++
	}
	return &EdgeCut{NumNodes: numNodes, Owner: owner}, nil
}

// Masks returns, per vertex, the bitmask of nodes where the vertex is
// present (master plus computation replicas). Under edge-cut, vertex u is
// replicated to node n != Owner[u] when u has an out-edge whose destination
// master lives on n.
func (ec *EdgeCut) Masks(g *graph.Graph) []uint64 {
	masks := make([]uint64, g.NumVertices())
	for v := range masks {
		masks[v] = 1 << uint(ec.Owner[v])
	}
	g.EachEdge(func(_ int, e graph.Edge) {
		masks[e.Src] |= 1 << uint(ec.Owner[e.Dst])
	})
	return masks
}

// VertexCut is the result of a vertex-cut partitioning: every edge has an
// owning node; a vertex is replicated on every node with an adjacent edge,
// and one hash-chosen node holds the master (the PowerGraph/PowerLyra
// model).
type VertexCut struct {
	NumNodes  int
	EdgeOwner []int32 // edge index -> node
	Master    []int32 // vertex -> master node
}

func newVertexCut(g *graph.Graph, numNodes int) *VertexCut {
	master := make([]int32, g.NumVertices())
	hostpar.Blocks(len(master), parMinBlock, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			master[v] = int32(rng.Hash64(uint64(v)+0x9e37) % uint64(numNodes))
		}
	})
	return &VertexCut{
		NumNodes:  numNodes,
		EdgeOwner: make([]int32, g.NumEdges()),
		Master:    master,
	}
}

// RandomVertexCut hashes each edge to a node.
func RandomVertexCut(g *graph.Graph, numNodes int) (*VertexCut, error) {
	if err := checkNodes(numNodes); err != nil {
		return nil, err
	}
	vc := newVertexCut(g, numNodes)
	hostpar.Blocks(g.NumEdges(), parMinBlock, 0, func(lo, hi int) {
		g.EachEdgeRange(lo, hi, func(i int, e graph.Edge) {
			vc.EdgeOwner[i] = int32(rng.Hash2(uint64(e.Src), uint64(e.Dst)) % uint64(numNodes))
		})
	})
	return vc, nil
}

// GridVertexCut implements 2D constrained partitioning (GraphBuilder's
// Grid-cut): nodes form an r x c grid, each vertex's candidate set is the
// row plus column of its home cell, and each edge lands in the intersection
// of its endpoints' candidate sets. Bounds the replication factor by
// 2*sqrt(p) - 1. The node count is factored into the most square grid
// available; prime counts degrade to 1 x p (equivalent to random by row).
func GridVertexCut(g *graph.Graph, numNodes int) (*VertexCut, error) {
	if err := checkNodes(numNodes); err != nil {
		return nil, err
	}
	rows := 1
	for d := 1; d*d <= numNodes; d++ {
		if numNodes%d == 0 {
			rows = d
		}
	}
	cols := numNodes / rows
	vc := newVertexCut(g, numNodes)
	cell := func(v graph.VertexID) (int, int) {
		h := int(hashVertex(v) % uint64(numNodes))
		return h / cols, h % cols
	}
	hostpar.Blocks(g.NumEdges(), parMinBlock, 0, func(lo, hi int) {
		g.EachEdgeRange(lo, hi, func(i int, e graph.Edge) {
			sr, sc := cell(e.Src)
			dr, dc := cell(e.Dst)
			var candidates [2]int
			count := 2
			switch {
			case sr == dr && sc == dc:
				candidates[0] = sr*cols + sc
				count = 1
			case sr == dr: // same row: whole row is shared
				candidates[0], candidates[1] = sr*cols+sc, sr*cols+dc
			case sc == dc: // same column
				candidates[0], candidates[1] = sr*cols+sc, dr*cols+sc
			default: // two crossing cells
				candidates[0], candidates[1] = sr*cols+dc, dr*cols+sc
			}
			pick := rng.Hash2(uint64(e.Src), uint64(e.Dst)) % uint64(count)
			vc.EdgeOwner[i] = int32(candidates[pick])
		})
	})
	return vc, nil
}

// HybridCutConfig tunes PowerLyra's hybrid-cut.
type HybridCutConfig struct {
	// Threshold on in-degree separating low-degree vertices (in-edges
	// hashed by destination, co-locating them with the vertex) from
	// high-degree ones (in-edges hashed by source, distributing the load).
	// PowerLyra's default is 100; our graphs are ~64x smaller, so the
	// catalog datasets use a proportionally smaller default.
	Threshold int
}

// DefaultHybridCutConfig returns the threshold used by the benchmarks.
func DefaultHybridCutConfig() HybridCutConfig { return HybridCutConfig{Threshold: 48} }

// HybridVertexCut implements PowerLyra's hybrid-cut: differentiated edge
// placement by destination in-degree.
func HybridVertexCut(g *graph.Graph, numNodes int, cfg HybridCutConfig) (*VertexCut, error) {
	if err := checkNodes(numNodes); err != nil {
		return nil, err
	}
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("partition: hybrid threshold must be positive, got %d", cfg.Threshold)
	}
	vc := newVertexCut(g, numNodes)
	hostpar.Blocks(g.NumEdges(), parMinBlock, 0, func(lo, hi int) {
		g.EachEdgeRange(lo, hi, func(i int, e graph.Edge) {
			if g.InDegree(e.Dst) <= cfg.Threshold {
				vc.EdgeOwner[i] = int32(rng.Hash64(uint64(e.Dst)) % uint64(numNodes))
			} else {
				vc.EdgeOwner[i] = int32(rng.Hash64(uint64(e.Src)) % uint64(numNodes))
			}
		})
	})
	return vc, nil
}

// Masks returns, per vertex, the bitmask of nodes where the vertex is
// present (master plus one replica per node holding an adjacent edge).
func (vc *VertexCut) Masks(g *graph.Graph) []uint64 {
	masks := make([]uint64, g.NumVertices())
	for v := range masks {
		masks[v] = 1 << uint(vc.Master[v])
	}
	g.EachEdge(func(i int, e graph.Edge) {
		bit := uint64(1) << uint(vc.EdgeOwner[i])
		masks[e.Src] |= bit
		masks[e.Dst] |= bit
	})
	return masks
}

// Stats summarizes a partitioning for the replication-factor figures
// (Fig 10a, Fig 14a) and load-balance sanity checks.
type Stats struct {
	NumNodes          int
	ReplicationFactor float64 // total presences / |V|
	// NoReplicaTotal counts vertices present on exactly one node; of those,
	// NoReplicaSelfish have no out-edges (Fig 3a's split).
	NoReplicaTotal   int
	NoReplicaSelfish int
	MaxVerticesNode  int // presences on the fullest node
	MinVerticesNode  int
	MaxEdgesNode     int
	MinEdgesNode     int
}

// ComputeStats derives Stats from presence masks and the per-node edge
// placement implied by the partitioning.
func ComputeStats(g *graph.Graph, masks []uint64, edgesPerNode []int, numNodes int) Stats {
	// One mask per vertex, and the graph constructors reject |V| beyond the
	// uint32 endpoint width (ErrGraphTooLarge), so every index fits VertexID.
	if len(masks) != g.NumVertices() {
		panic("partition: ComputeStats needs one mask per vertex")
	}
	s := Stats{NumNodes: numNodes}
	presences := 0
	perNode := make([]int, numNodes)
	for v, m := range masks {
		c := bits.OnesCount64(m)
		presences += c
		if c == 1 {
			s.NoReplicaTotal++
			if g.IsSelfish(graph.VertexID(v)) {
				s.NoReplicaSelfish++
			}
		}
		for mm := m; mm != 0; mm &= mm - 1 {
			perNode[bits.TrailingZeros64(mm)]++
		}
	}
	if g.NumVertices() > 0 {
		s.ReplicationFactor = float64(presences) / float64(g.NumVertices())
	}
	s.MinVerticesNode = math.MaxInt
	for _, c := range perNode {
		if c > s.MaxVerticesNode {
			s.MaxVerticesNode = c
		}
		if c < s.MinVerticesNode {
			s.MinVerticesNode = c
		}
	}
	s.MinEdgesNode = math.MaxInt
	for _, c := range edgesPerNode {
		if c > s.MaxEdgesNode {
			s.MaxEdgesNode = c
		}
		if c < s.MinEdgesNode {
			s.MinEdgesNode = c
		}
	}
	if len(edgesPerNode) == 0 {
		s.MinEdgesNode = 0
	}
	return s
}

// Stats computes partitioning statistics for an edge-cut.
func (ec *EdgeCut) Stats(g *graph.Graph) Stats {
	edgesPerNode := make([]int, ec.NumNodes)
	g.EachEdge(func(_ int, e graph.Edge) {
		edgesPerNode[ec.Owner[e.Dst]]++
	})
	return ComputeStats(g, ec.Masks(g), edgesPerNode, ec.NumNodes)
}

// Stats computes partitioning statistics for a vertex-cut.
func (vc *VertexCut) Stats(g *graph.Graph) Stats {
	edgesPerNode := make([]int, vc.NumNodes)
	for _, o := range vc.EdgeOwner {
		edgesPerNode[o]++
	}
	return ComputeStats(g, vc.Masks(g), edgesPerNode, vc.NumNodes)
}
