// Package gen provides deterministic synthetic graph generators. The paper
// evaluates on real web/social graphs (GWeb, LJournal, Wiki, UK-2005,
// Twitter), a road network (RoadCA), a co-author graph (DBLP), a bipartite
// rating graph (SYN-GL) and synthetic power-law graphs with varying Zipf
// constant alpha. Real traces are not redistributable, so each generator
// here reproduces the structural properties the paper's measurements depend
// on: degree skew, |E|/|V| ratio, and the fraction of "selfish" vertices
// (vertices with no out-edges).
package gen

import (
	"fmt"
	"math"

	"imitator/internal/graph"
	"imitator/internal/rng"
)

// PowerLawConfig parameterizes a directed power-law graph. Per-vertex
// out-degrees and in-degree attractiveness are drawn from a Pareto tail
// with index (Alpha-1), matching the paper's synthetic graphs where a
// smaller Zipf constant alpha yields a fatter tail: bigger hubs and, at
// fixed |V|, more edges (Table 4).
type PowerLawConfig struct {
	NumVertices int
	// NumEdges, when positive, is the exact edge count to emit (degrees are
	// scaled to the target). When zero, the edge count emerges from Alpha.
	NumEdges int
	Alpha    float64 // power-law exponent; the paper sweeps 1.8..2.2
	// SelfishFraction of the vertices become pure sinks (no out-edges).
	// GWeb and LJournal have >10% such vertices (Fig 3a).
	SelfishFraction float64
	Seed            uint64
	// Workers selects the generation path. 0 keeps the original sequential
	// emission, byte-compatible with every graph checked into benchmark
	// baselines. Any value >= 1 switches to the sharded deterministic path
	// (see parallel.go), whose output depends only on Seed — the same graph
	// comes back for Workers 1, 2 or 64 — but differs from the Workers == 0
	// graph because edges are planned per-vertex instead of drawn from one
	// sequential stream.
	Workers int
}

// PowerLaw generates a directed power-law graph.
func PowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if cfg.NumVertices <= 1 {
		return nil, fmt.Errorf("gen: power-law needs >= 2 vertices, got %d", cfg.NumVertices)
	}
	if cfg.NumEdges < 0 {
		return nil, fmt.Errorf("gen: negative edge target %d", cfg.NumEdges)
	}
	// Negated so that NaN fails too: the sampler needs a finite, positive
	// weight total.
	if !(cfg.Alpha > 1) {
		return nil, fmt.Errorf("gen: alpha must exceed 1, got %v", cfg.Alpha)
	}
	if !(cfg.SelfishFraction >= 0 && cfg.SelfishFraction < 1) {
		return nil, fmt.Errorf("gen: selfish fraction %v outside [0,1)", cfg.SelfishFraction)
	}
	if cfg.Workers != 0 {
		return powerLawParallel(cfg)
	}
	r := rng.New(cfg.Seed)
	n := cfg.NumVertices
	sink, deg, dsts := powerLawPlan(cfg, r)
	capHint := cfg.NumEdges
	if capHint == 0 {
		capHint = 3 * n
	}
	edges := make([]graph.Edge, 0, capHint)
	emit := func(src graph.VertexID) bool {
		for tries := 0; tries < 16; tries++ {
			if dst := dsts.sample(r); dst != src {
				edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: 1})
				return true
			}
		}
		return false
	}
	for v := 0; v < n; v++ {
		if sink[v] {
			continue
		}
		d := deg[v]
		di := int(d)
		if r.Float64() < d-float64(di) {
			di++
		}
		if di == 0 {
			di = 1 // every non-sink vertex emits at least one edge
		}
		for i := 0; i < di; i++ {
			if cfg.NumEdges > 0 && len(edges) >= cfg.NumEdges {
				break
			}
			emit(graph.VertexID(v))
		}
	}
	// Top up to the exact target from random non-sink sources.
	for cfg.NumEdges > 0 && len(edges) < cfg.NumEdges {
		v := graph.VertexID(r.Intn(n))
		if !sink[v] {
			emit(v)
		}
	}
	return graph.New(n, edges)
}

// powerLawPlan makes the draws both power-law paths share, in this order
// from r: the sinks, the out-degree ranks and the in-degree ranks. It returns
// the sink flags, each vertex's expected out-degree (scaled to the edge
// target, or to 3|V| without one; 0 for sinks) and the destination table.
func powerLawPlan(cfg PowerLawConfig, r *rng.Source) (sink []bool, deg []float64, dsts *zipfTable) {
	n := cfg.NumVertices
	// Vertices in the top SelfishFraction of a random permutation become
	// sinks: they receive edges but emit none.
	sink = make([]bool, n)
	for _, v := range r.Perm(n)[:int(cfg.SelfishFraction*float64(n))] {
		sink[v] = true
	}

	// A degree distribution P(d) ~ d^-alpha corresponds, in rank space, to
	// Zipf's law with exponent s = 1/(alpha-1): the vertex of rank i has
	// weight ~ (i+1)^-s. A smaller alpha therefore yields a steeper rank
	// curve — bigger hubs — exactly as in the paper's Table 4 sweep. Hub
	// ranks are assigned via random permutations so hubs are spread across
	// the id space (and across hash partitions), as in crawled datasets.
	s := 1 / (cfg.Alpha - 1)
	outRank := r.Perm(n)
	deg = make([]float64, n)
	sum := 0.0
	for v := range n {
		if !sink[v] {
			deg[v] = math.Pow(float64(outRank[v]+1), -s)
			sum += deg[v]
		}
	}
	scale := float64(3*n) / sum
	if cfg.NumEdges > 0 {
		scale = float64(cfg.NumEdges) / sum
	}
	for v := range deg {
		deg[v] *= scale
	}
	// In-degree attractiveness: an independent rank assignment.
	prefix := make([]float64, n+1)
	for v, rk := range r.Perm(n) {
		prefix[v+1] = prefix[v] + math.Pow(float64(rk+1), -s)
	}
	return sink, deg, newZipfTable(prefix)
}

// zipfTable samples vertex v with probability proportional to its Zipf
// weight, answering a uniform draw x in [0, total] exactly as a plain binary
// search does: the smallest v with prefix[v+1] >= x. So the graphs are the
// ones that search built, but a draw searches one guide bucket, not all n
// vertices. guide[b] is the answer for threshold(b); the answer is monotone
// in x, so a draw in bucket b has it in [guide[b], guide[b+1]].
type zipfTable struct {
	prefix []float64 // n+1 prefix sums, prefix[0] = 0
	guide  []int32   // n+1 bucket starts
	total  float64   // prefix[n]: finite, and >= 1 (rank 0 weighs 1)
	step   float64   // total / n
}

// newZipfTable builds the guide over prefix, the n+1 ascending weight prefix
// sums from prefix[0] = 0, and keeps prefix.
func newZipfTable(prefix []float64) *zipfTable {
	n := len(prefix) - 1
	z := &zipfTable{prefix: prefix, guide: make([]int32, n+1), total: prefix[n]}
	z.step = z.total / float64(n)
	// One merge walk: thresholds and prefix sums both ascend.
	j := 0
	for b := range z.guide {
		t := z.threshold(b)
		for j < n && z.prefix[j+1] < t {
			j++
		}
		z.guide[b] = int32(j)
	}
	return z
}

// threshold is bucket b's lower edge; the last edge is total itself, so
// every draw x <= total has a bucket.
func (z *zipfTable) threshold(b int) float64 {
	if b == len(z.guide)-1 {
		return z.total
	}
	return float64(b) * z.step
}

// lowerBound returns the smallest v with prefix[v+1] >= x, for x in
// [0, total]. The bucket estimate x/step is never too low: threshold(b+1) is
// the float nearest (b+1)·step, so a float above it is at least (b+1)·step
// and its quotient rounds to b+1 or more. Rounding can make the estimate one
// too high; the comparison against threshold(b) corrects that.
func (z *zipfTable) lowerBound(x float64) int {
	n := len(z.guide) - 1
	b := min(int(x/z.step), n-1)
	for b > 0 && x < z.threshold(b) {
		b--
	}
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.prefix[mid+1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sample draws one vertex, consuming one Float64 of r.
func (z *zipfTable) sample(r *rng.Source) graph.VertexID {
	return graph.VertexID(z.lowerBound(r.Float64() * z.total))
}

// RoadConfig parameterizes a road-like network: a 2D lattice with a few
// random shortcuts, log-normally weighted (paper §6.1 assigns RoadCA
// weights from LogNormal(mu=0.4, sigma=1.2)).
type RoadConfig struct {
	Width, Height int
	ShortcutFrac  float64 // extra edges as a fraction of lattice edges
	WeightMu      float64
	WeightSigma   float64
	Seed          uint64
	// Workers: 0 = sequential legacy path, >= 1 = deterministic parallel
	// path (output independent of the worker count; see parallel.go).
	Workers int
}

// Road generates a bidirectional lattice road network with weights.
func Road(cfg RoadConfig) (*graph.Graph, error) {
	if cfg.Width < 2 || cfg.Height < 2 {
		return nil, fmt.Errorf("gen: road grid must be at least 2x2, got %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Workers != 0 {
		return roadParallel(cfg)
	}
	r := rng.New(cfg.Seed)
	n := cfg.Width * cfg.Height
	at := func(x, y int) graph.VertexID { return graph.VertexID(y*cfg.Width + x) }
	w := func() float64 {
		if cfg.WeightSigma == 0 && cfg.WeightMu == 0 {
			return 1
		}
		return r.LogNormal(cfg.WeightMu, cfg.WeightSigma)
	}
	var edges []graph.Edge
	addBoth := func(a, b graph.VertexID) {
		wt := w()
		edges = append(edges, graph.Edge{Src: a, Dst: b, Weight: wt}, graph.Edge{Src: b, Dst: a, Weight: wt})
	}
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			if x+1 < cfg.Width {
				addBoth(at(x, y), at(x+1, y))
			}
			if y+1 < cfg.Height {
				addBoth(at(x, y), at(x, y+1))
			}
		}
	}
	shortcuts := int(cfg.ShortcutFrac * float64(len(edges)/2))
	for i := 0; i < shortcuts; i++ {
		a := graph.VertexID(r.Intn(n))
		b := graph.VertexID(r.Intn(n))
		if a != b {
			addBoth(a, b)
		}
	}
	return graph.New(n, edges)
}

// BipartiteConfig parameterizes a user-item rating graph for ALS (SYN-GL in
// the paper is a synthetic GraphLab collaborative-filtering input).
type BipartiteConfig struct {
	NumUsers, NumItems int
	NumRatings         int
	ItemAlpha          float64 // item-popularity skew
	Seed               uint64
}

// Bipartite generates a bipartite rating graph. Vertices [0, NumUsers) are
// users, [NumUsers, NumUsers+NumItems) are items. Each rating contributes an
// edge in both directions (ALS gathers over both sides), with the rating
// value in [1, 5] as the weight.
func Bipartite(cfg BipartiteConfig) (*graph.Graph, error) {
	if cfg.NumUsers <= 0 || cfg.NumItems <= 0 {
		return nil, fmt.Errorf("gen: bipartite needs users and items, got %d/%d", cfg.NumUsers, cfg.NumItems)
	}
	r := rng.New(cfg.Seed)
	zItem := rng.NewZipf(r, cfg.NumItems, cfg.ItemAlpha)
	n := cfg.NumUsers + cfg.NumItems
	edges := make([]graph.Edge, 0, 2*cfg.NumRatings)
	for i := 0; i < cfg.NumRatings; i++ {
		u := graph.VertexID(r.Intn(cfg.NumUsers))
		it := graph.VertexID(cfg.NumUsers + zItem.Next())
		rating := float64(1 + r.Intn(5))
		edges = append(edges,
			graph.Edge{Src: u, Dst: it, Weight: rating},
			graph.Edge{Src: it, Dst: u, Weight: rating})
	}
	return graph.New(n, edges)
}

// CommunityConfig parameterizes a DBLP-like community graph: dense clusters
// with sparse inter-cluster edges, symmetric.
type CommunityConfig struct {
	NumVertices    int
	NumCommunities int
	IntraDegree    float64 // expected intra-community out-degree per vertex
	InterDegree    float64 // expected cross-community out-degree per vertex
	Seed           uint64
	// Workers: 0 = sequential legacy path, >= 1 = deterministic parallel
	// path (output independent of the worker count; see parallel.go).
	Workers int
}

// Community generates a community-structured graph.
func Community(cfg CommunityConfig) (*graph.Graph, error) {
	if cfg.NumVertices <= 0 || cfg.NumCommunities <= 0 {
		return nil, fmt.Errorf("gen: community needs vertices and communities")
	}
	if cfg.NumCommunities > cfg.NumVertices {
		return nil, fmt.Errorf("gen: more communities (%d) than vertices (%d)", cfg.NumCommunities, cfg.NumVertices)
	}
	if cfg.Workers != 0 {
		return communityParallel(cfg)
	}
	r := rng.New(cfg.Seed)
	n := cfg.NumVertices
	comm := make([]int, n)
	for v := range comm {
		comm[v] = r.Intn(cfg.NumCommunities)
	}
	// Bucket members per community for intra sampling.
	members := make([][]graph.VertexID, cfg.NumCommunities)
	for v, c := range comm {
		members[c] = append(members[c], graph.VertexID(v))
	}
	var edges []graph.Edge
	addBoth := func(a, b graph.VertexID) {
		edges = append(edges, graph.Edge{Src: a, Dst: b, Weight: 1}, graph.Edge{Src: b, Dst: a, Weight: 1})
	}
	for v := 0; v < n; v++ {
		c := comm[v]
		intra := int(cfg.IntraDegree/2 + 0.5)
		for i := 0; i < intra; i++ {
			peers := members[c]
			if len(peers) < 2 {
				break
			}
			u := peers[r.Intn(len(peers))]
			if u != graph.VertexID(v) {
				addBoth(graph.VertexID(v), u)
			}
		}
		inter := cfg.InterDegree / 2
		if r.Float64() < inter-float64(int(inter)) {
			inter++
		}
		for i := 0; i < int(inter); i++ {
			u := graph.VertexID(r.Intn(n))
			if u != graph.VertexID(v) && comm[u] != c {
				addBoth(graph.VertexID(v), u)
			}
		}
	}
	return graph.New(n, edges)
}
