// Package algorithms implements the paper's four evaluation workloads as
// core.Program vertex programs: PageRank, Single-Source Shortest Path,
// Community Detection (label propagation) and Alternating Least Squares.
package algorithms

import (
	"math"
	"slices"
	"sort"

	"imitator/internal/core"
	"imitator/internal/graph"
	"imitator/internal/linalg"
	"imitator/internal/rng"
)

// PageRank is the classic damped PageRank, run for a fixed number of
// iterations with every vertex active (the paper's main workload).
type PageRank struct {
	NumVertices int
	Damping     float64
}

// NewPageRank returns a PageRank program with damping 0.85.
func NewPageRank(numVertices int) *PageRank {
	return &PageRank{NumVertices: numVertices, Damping: 0.85}
}

var _ core.Program[float64, float64] = (*PageRank)(nil)

// Name implements core.Program.
func (p *PageRank) Name() string { return "pagerank" }

// AlwaysActive implements core.Program.
func (p *PageRank) AlwaysActive() bool { return true }

// CanRecomputeSelfish implements core.Program: Apply ignores the old value,
// so a selfish vertex's rank is recomputable from its in-neighbors (§4.4).
func (p *PageRank) CanRecomputeSelfish() bool { return true }

// Init implements core.Program.
func (p *PageRank) Init(graph.VertexID, core.VertexInfo) (float64, bool) { return 1.0, true }

// Gather implements core.Program: each source's rank over its out-degree,
// summed in edge order (a rank is never -0, so skipping a 0 adds no bit).
func (p *PageRank) Gather(_ graph.VertexID, in core.InEdges[float64]) float64 {
	sum := 0.0
	for k := 0; k < in.Len(); k++ {
		if d := in.Info(k).OutDeg; d != 0 {
			sum += in.Value(k) / float64(d)
		}
	}
	return sum
}

// Merge implements core.Program.
func (p *PageRank) Merge(a, b float64) float64 { return a + b }

// Apply implements core.Program.
func (p *PageRank) Apply(_ graph.VertexID, _ core.VertexInfo, _ float64, acc float64, hasAcc bool, _ int) (float64, bool) {
	sum := 0.0
	if hasAcc {
		sum = acc
	}
	return (1 - p.Damping) + p.Damping*sum, true
}

// ValueCodec implements core.Program.
func (p *PageRank) ValueCodec() core.Codec[float64] { return core.Float64Codec{} }

// AccCodec implements core.Program.
func (p *PageRank) AccCodec() core.Codec[float64] { return core.Float64Codec{} }

// SSSP computes single-source shortest paths over weighted edges with
// activation-driven scheduling: a vertex recomputes only when a neighbor's
// distance improved.
type SSSP struct {
	Source graph.VertexID
}

// NewSSSP returns an SSSP program from the given source.
func NewSSSP(source graph.VertexID) *SSSP { return &SSSP{Source: source} }

var _ core.Program[float64, float64] = (*SSSP)(nil)

// Name implements core.Program.
func (s *SSSP) Name() string { return "sssp" }

// AlwaysActive implements core.Program.
func (s *SSSP) AlwaysActive() bool { return false }

// CanRecomputeSelfish implements core.Program: distances are cumulative
// state that cannot be recomputed in one step, so the optimization is off.
func (s *SSSP) CanRecomputeSelfish() bool { return false }

// Init implements core.Program: everyone starts active so the first
// superstep relaxes the source's out-edges.
func (s *SSSP) Init(v graph.VertexID, _ core.VertexInfo) (float64, bool) {
	if v == s.Source {
		return 0, true
	}
	return math.Inf(1), true
}

// Gather implements core.Program: the least source distance + edge weight.
func (s *SSSP) Gather(_ graph.VertexID, in core.InEdges[float64]) float64 {
	best := in.Value(0) + in.Weight(0)
	for k := 1; k < in.Len(); k++ {
		best = s.Merge(best, in.Value(k)+in.Weight(k))
	}
	return best
}

// Merge implements core.Program.
func (s *SSSP) Merge(a, b float64) float64 { return math.Min(a, b) }

// Apply implements core.Program: relax; scatter only on improvement.
func (s *SSSP) Apply(_ graph.VertexID, _ core.VertexInfo, old float64, acc float64, hasAcc bool, _ int) (float64, bool) {
	if !hasAcc || acc >= old {
		return old, false
	}
	return acc, true
}

// ValueCodec implements core.Program.
func (s *SSSP) ValueCodec() core.Codec[float64] { return core.Float64Codec{} }

// AccCodec implements core.Program.
func (s *SSSP) AccCodec() core.Codec[float64] { return core.Float64Codec{} }

// CD is community detection by synchronous label propagation: each vertex
// adopts the most frequent label among its in-neighbors (ties break toward
// the smaller label) and scatters only when its label changed.
type CD struct{}

// NewCD returns a community-detection program.
func NewCD() *CD { return &CD{} }

var _ core.Program[int32, []core.LabelCount] = (*CD)(nil)

// Name implements core.Program.
func (c *CD) Name() string { return "cd" }

// AlwaysActive implements core.Program.
func (c *CD) AlwaysActive() bool { return false }

// CanRecomputeSelfish implements core.Program: labels of inactive vertices
// are sticky state, so recomputation is unsound.
func (c *CD) CanRecomputeSelfish() bool { return false }

// Init implements core.Program: every vertex starts in its own community.
func (c *CD) Init(v graph.VertexID, _ core.VertexInfo) (int32, bool) { return int32(v), true }

// Gather implements core.Program: in-edge weight per source label, by label.
func (c *CD) Gather(_ graph.VertexID, in core.InEdges[int32]) []core.LabelCount {
	acc := make([]core.LabelCount, 0, in.Len())
	for k := 0; k < in.Len(); k++ {
		label, w := in.Value(k), in.Weight(k)
		i := sort.Search(len(acc), func(j int) bool { return acc[j].Label >= label })
		if i < len(acc) && acc[i].Label == label {
			acc[i].Count += w
		} else {
			acc = slices.Insert(acc, i, core.LabelCount{Label: label, Count: w})
		}
	}
	return acc
}

// Merge implements core.Program.
func (c *CD) Merge(a, b []core.LabelCount) []core.LabelCount {
	return core.MergeLabelCounts(a, b)
}

// Apply implements core.Program.
func (c *CD) Apply(_ graph.VertexID, _ core.VertexInfo, old int32, acc []core.LabelCount, hasAcc bool, _ int) (int32, bool) {
	if !hasAcc || len(acc) == 0 {
		return old, false
	}
	best := acc[0]
	for _, lc := range acc[1:] {
		if lc.Count > best.Count || (lc.Count == best.Count && lc.Label < best.Label) {
			best = lc
		}
	}
	if best.Label == old {
		return old, false
	}
	return best.Label, true
}

// ValueCodec implements core.Program.
func (c *CD) ValueCodec() core.Codec[int32] { return core.Int32Codec{} }

// AccCodec implements core.Program.
func (c *CD) AccCodec() core.Codec[[]core.LabelCount] { return core.LabelCountCodec{} }

// ALS is alternating least squares for collaborative filtering on a
// bipartite user-item rating graph (vertices [0, NumUsers) are users). On
// even iterations users re-solve their latent factors against fixed item
// factors, on odd iterations the items move.
type ALS struct {
	NumUsers int
	Dim      int
	Lambda   float64
	Seed     uint64
}

// NewALS returns an ALS program with latent dimension dim.
func NewALS(numUsers, dim int, lambda float64) *ALS {
	return &ALS{NumUsers: numUsers, Dim: dim, Lambda: lambda, Seed: 0xa15}
}

var _ core.Program[[]float64, []float64] = (*ALS)(nil)

// Name implements core.Program.
func (a *ALS) Name() string { return "als" }

// AlwaysActive implements core.Program.
func (a *ALS) AlwaysActive() bool { return true }

// CanRecomputeSelfish implements core.Program: the solve ignores the old
// factor vector.
func (a *ALS) CanRecomputeSelfish() bool { return true }

// Init implements core.Program: deterministic pseudo-random factors in
// [0, 1), identical on every node.
func (a *ALS) Init(v graph.VertexID, _ core.VertexInfo) ([]float64, bool) {
	vec := make([]float64, a.Dim)
	for i := range vec {
		h := rng.Hash2(a.Seed+uint64(i), uint64(v))
		vec[i] = float64(h>>11) / (1 << 53)
	}
	return vec, true
}

// accLen is d*d (normal matrix) + d (rhs) + 1 (rating count).
func (a *ALS) accLen() int { return a.Dim*a.Dim + a.Dim + 1 }

// Gather implements core.Program: accumulate q qᵀ, r·q and the rating
// count for the ridge term. Sums start at -0 (-0 + x is x) and products are
// rounded before they are added, so no fused multiply-add moves a bit.
func (a *ALS) Gather(_ graph.VertexID, in core.InEdges[[]float64]) []float64 {
	d := a.Dim
	acc := make([]float64, a.accLen())
	for i := range acc {
		acc[i] = math.Copysign(0, -1)
	}
	for k := 0; k < in.Len(); k++ {
		q, r := in.Value(k), in.Weight(k)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				acc[i*d+j] += float64(q[i] * q[j])
			}
			acc[d*d+i] += float64(r * q[i])
		}
		acc[d*d+d]++
	}
	return acc
}

// Merge implements core.Program.
func (a *ALS) Merge(x, y []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// Apply implements core.Program: on its side's turn, solve the regularized
// normal equations; otherwise keep the factors.
func (a *ALS) Apply(v graph.VertexID, _ core.VertexInfo, old []float64, acc []float64, hasAcc bool, iter int) ([]float64, bool) {
	isUser := int(v) < a.NumUsers
	usersTurn := iter%2 == 0
	if isUser != usersTurn || !hasAcc {
		return old, true
	}
	d := a.Dim
	m := linalg.NewDense(d)
	copy(m.Data, acc[:d*d])
	n := acc[d*d+d]
	m.AddDiag(a.Lambda * n)
	b := acc[d*d : d*d+d]
	x, err := linalg.SolveSPD(m, b)
	if err != nil {
		if x, err = linalg.Solve(m, b); err != nil {
			return old, true
		}
	}
	return x, true
}

// ValueCodec implements core.Program.
func (a *ALS) ValueCodec() core.Codec[[]float64] { return core.VecCodec{Dim: a.Dim} }

// AccCodec implements core.Program.
func (a *ALS) AccCodec() core.Codec[[]float64] { return core.VecCodec{Dim: a.accLen()} }
