// Package graph defines the input graph representation shared by every
// component in the repository: generators produce Graphs, partitioners
// consume them, and the engines build their per-node local structures from
// partitioned views.
//
// Graphs are directed and optionally weighted. Vertices are dense integers
// [0, NumVertices). The canonical edge order is insertion order — edge i is
// the i-th edge handed to the constructor — and every traversal (EachEdge,
// InEdges, OutEdges) replays that order, which is what keeps downstream
// floating-point reductions bit-identical across layout changes.
//
// Memory layout: endpoints live in structure-of-arrays form, width-reduced
// to uint16 when the vertex count permits; weights are elided entirely for
// unweighted graphs; and both compressed adjacencies (CSR by destination and
// by source) index back into the canonical arrays. There is no flat []Edge
// list: callers traverse with EachEdge or index with Edge(i).
package graph

import (
	"errors"
	"fmt"
	"math"

	"imitator/internal/hostpar"
)

// VertexID identifies a vertex. Dense in [0, NumVertices).
type VertexID uint32

// Edge is a directed edge Src -> Dst with an optional weight (1.0 when the
// graph is unweighted).
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// narrowLimit is the vertex count at or below which endpoints fit uint16.
const narrowLimit = 1 << 16

// Graph is an immutable directed graph. Build one with New or NewFromSOA,
// or via the generators in internal/gen.
type Graph struct {
	numVertices int
	numEdges    int

	// Canonical endpoint arrays in insertion order. Exactly one width is
	// populated: the 16-bit pair when numVertices <= narrowLimit, else the
	// 32-bit pair.
	src32, dst32 []VertexID
	src16, dst16 []uint16
	// wt holds per-edge weights; nil when every weight is 1 (unweighted).
	wt []float64

	inCSR  csr // edges grouped by Dst
	outCSR csr // edges grouped by Src
}

// csr is a compressed adjacency: offsets[v]..offsets[v+1] index into edgeIdx,
// which points back into the canonical edge arrays. Degrees are derived from
// offsets, so no separate degree arrays are kept.
type csr struct {
	offsets []int32
	edgeIdx []int32
}

// ErrVertexOutOfRange reports an edge endpoint outside [0, NumVertices).
var ErrVertexOutOfRange = errors.New("graph: vertex id out of range")

// ErrGraphTooLarge reports a graph that does not fit the compact layout:
// more edges than the int32 CSR indexes can address, or more vertices than
// the uint32 endpoint arrays can name. At the paper's Twitter scale (1.47B
// edges) |E| sits within 1.5× of the int32 limit, so the constructors must
// reject the overflow loudly rather than let a narrowing conversion wrap.
var ErrGraphTooLarge = errors.New("graph: graph exceeds the compact layout's index width")

const (
	// maxEdges is the largest edge count the int32 CSR offset/index arrays
	// can address.
	maxEdges = math.MaxInt32
	// maxVertices is the largest vertex count the uint32 endpoint arrays can
	// name: ids are dense in [0, NumVertices), so NumVertices may reach 1<<32.
	maxVertices = 1 << 32
)

// checkSize validates the counts against the layout limits before any
// allocation; both constructors call it first.
func checkSize(numVertices, numEdges int) error {
	if int64(numVertices) > maxVertices {
		return fmt.Errorf("%w: %d vertices exceed the uint32 endpoint width (max %d)",
			ErrGraphTooLarge, numVertices, int64(maxVertices))
	}
	if int64(numEdges) > maxEdges {
		return fmt.Errorf("%w: %d edges exceed the int32 CSR index width (max %d)",
			ErrGraphTooLarge, numEdges, int64(maxEdges))
	}
	return nil
}

// New builds a graph from an edge list. It validates endpoints, converts the
// list into the compact layout and builds both adjacency indexes; the input
// slice is not retained.
func New(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	if err := checkSize(numVertices, len(edges)); err != nil {
		return nil, err
	}
	for i, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("%w: edge %d (%d->%d) with %d vertices",
				ErrVertexOutOfRange, i, e.Src, e.Dst, numVertices)
		}
	}
	g := &Graph{numVertices: numVertices, numEdges: len(edges)}
	m := len(edges)
	weighted := false
	for i := range edges {
		if edges[i].Weight != 1 {
			weighted = true
			break
		}
	}
	if weighted {
		g.wt = make([]float64, m)
	}
	if numVertices <= narrowLimit {
		g.src16 = make([]uint16, m)
		g.dst16 = make([]uint16, m)
		for i := range edges {
			g.src16[i] = uint16(edges[i].Src)
			g.dst16[i] = uint16(edges[i].Dst)
			if weighted {
				g.wt[i] = edges[i].Weight
			}
		}
	} else {
		g.src32 = make([]VertexID, m)
		g.dst32 = make([]VertexID, m)
		for i := range edges {
			g.src32[i] = edges[i].Src
			g.dst32[i] = edges[i].Dst
			if weighted {
				g.wt[i] = edges[i].Weight
			}
		}
	}
	g.buildIndexes()
	return g, nil
}

// MustNew is New but panics on error; for tests and generators whose inputs
// are valid by construction.
func MustNew(numVertices int, edges []Edge) *Graph {
	g, err := New(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NewFromSOA builds a graph directly from structure-of-arrays endpoint
// slices, the form the parallel generators emit; it avoids ever
// materializing the 16-bytes-per-edge []Edge list. wt may be nil (all
// weights 1) or len(src) weights — a non-nil slice whose entries are all 1
// is elided. Ownership of the slices transfers to the graph; callers must
// not mutate them afterwards (the 32-bit pair is retained as-is when the
// vertex count needs it).
func NewFromSOA(numVertices int, src, dst []VertexID, wt []float64) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	if err := checkSize(numVertices, len(src)); err != nil {
		return nil, err
	}
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch %d != %d", len(src), len(dst))
	}
	if wt != nil && len(wt) != len(src) {
		return nil, fmt.Errorf("graph: weight length %d != edge count %d", len(wt), len(src))
	}
	m := len(src)
	for i := 0; i < m; i++ {
		if int(src[i]) >= numVertices || int(dst[i]) >= numVertices {
			return nil, fmt.Errorf("%w: edge %d (%d->%d) with %d vertices",
				ErrVertexOutOfRange, i, src[i], dst[i], numVertices)
		}
	}
	if wt != nil {
		weighted := false
		for _, w := range wt {
			if w != 1 {
				weighted = true
				break
			}
		}
		if !weighted {
			wt = nil
		}
	}
	g := &Graph{numVertices: numVertices, numEdges: m, wt: wt}
	if numVertices <= narrowLimit {
		g.src16 = make([]uint16, m)
		g.dst16 = make([]uint16, m)
		for i := 0; i < m; i++ {
			g.src16[i] = uint16(src[i])
			g.dst16[i] = uint16(dst[i])
		}
	} else {
		g.src32 = src
		g.dst32 = dst
	}
	g.buildIndexes()
	return g, nil
}

func (g *Graph) buildIndexes() {
	n := g.numVertices
	if g.numVertices <= narrowLimit {
		g.inCSR = buildCSRKeys(n, g.dst16)
		g.outCSR = buildCSRKeys(n, g.src16)
	} else {
		g.inCSR = buildCSRKeys(n, g.dst32)
		g.outCSR = buildCSRKeys(n, g.src32)
	}
}

// csrMinShard is the smallest per-shard edge count worth a goroutine during
// CSR construction.
const csrMinShard = 1 << 19

// buildCSRKeys is a stable parallel counting sort over the key array: the
// resulting edgeIdx lists each vertex's edges in ascending canonical index,
// exactly as the sequential two-pass build would. Shard s counts its slice,
// a sequential sweep turns the per-shard counts into per-shard placement
// cursors (cursor[s][v] = offsets[v] + sum of earlier shards' counts of v),
// and the placement pass writes every edge to a position that depends only
// on the input — so the output is identical for every shard count and
// worker count.
func buildCSRKeys[K uint16 | VertexID](n int, keys []K) csr {
	m := len(keys)
	// Backstop for the int32 index width: the public constructors already
	// reject |E| > MaxInt32 (ErrGraphTooLarge), so this can only fire for a
	// future internal caller that skips them — fail loudly, never wrap.
	if int64(m) > maxEdges {
		panic("graph: edge count overflows the int32 CSR index width")
	}
	offsets := make([]int32, n+1)
	if m == 0 {
		return csr{offsets: offsets}
	}
	shards := m / csrMinShard
	if lim := hostpar.Limit(); shards > lim {
		shards = lim
	}
	if shards < 1 {
		shards = 1
	}
	bounds := make([][2]int, shards)
	base, rem := m/shards, m%shards
	lo := 0
	for s := range bounds {
		hi := lo + base
		if s < rem {
			hi++
		}
		bounds[s] = [2]int{lo, hi}
		lo = hi
	}
	counts := make([][]int32, shards)
	hostpar.For(shards, shards, func(s int) {
		cnt := make([]int32, n)
		for _, k := range keys[bounds[s][0]:bounds[s][1]] {
			cnt[k]++
		}
		counts[s] = cnt
	})
	// offsets[v] = start of v's run; counts[s][v] becomes shard s's write
	// cursor for key v.
	run := int32(0)
	for v := 0; v < n; v++ {
		offsets[v] = run
		for s := 0; s < shards; s++ {
			c := counts[s][v]
			counts[s][v] = run
			run += c
		}
	}
	offsets[n] = run
	idx := make([]int32, m)
	hostpar.For(shards, shards, func(s int) {
		cur := counts[s]
		for i := bounds[s][0]; i < bounds[s][1]; i++ {
			k := keys[i]
			idx[cur[k]] = int32(i)
			cur[k]++
		}
	})
	return csr{offsets: offsets, edgeIdx: idx}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.numEdges }

// Weighted reports whether any edge weight differs from 1.
func (g *Graph) Weighted() bool { return g.wt != nil }

// EdgeSrc returns edge i's source without materializing an Edge value.
func (g *Graph) EdgeSrc(i int) VertexID {
	if g.src16 != nil {
		return VertexID(g.src16[i])
	}
	return g.src32[i]
}

// EdgeDst returns edge i's destination.
func (g *Graph) EdgeDst(i int) VertexID {
	if g.dst16 != nil {
		return VertexID(g.dst16[i])
	}
	return g.dst32[i]
}

// EdgeWeight returns edge i's weight (1 for unweighted graphs).
func (g *Graph) EdgeWeight(i int) float64 {
	if g.wt == nil {
		return 1
	}
	return g.wt[i]
}

// Edge returns edge i.
func (g *Graph) Edge(i int) Edge {
	return Edge{Src: g.EdgeSrc(i), Dst: g.EdgeDst(i), Weight: g.EdgeWeight(i)}
}

// EachEdge calls fn for every edge in canonical (insertion) order. This is
// the bulk traversal the engine and partitioners use; the loop is
// specialized per endpoint width so the per-edge cost is one bounds-checked
// load per array.
func (g *Graph) EachEdge(fn func(i int, e Edge)) {
	if g.src16 != nil {
		for i := range g.src16 {
			e := Edge{Src: VertexID(g.src16[i]), Dst: VertexID(g.dst16[i]), Weight: 1}
			if g.wt != nil {
				e.Weight = g.wt[i]
			}
			fn(i, e)
		}
		return
	}
	for i := range g.src32 {
		e := Edge{Src: g.src32[i], Dst: g.dst32[i], Weight: 1}
		if g.wt != nil {
			e.Weight = g.wt[i]
		}
		fn(i, e)
	}
}

// EachEdgeRange is EachEdge restricted to canonical indexes [lo, hi); the
// parallel loaders shard on it.
func (g *Graph) EachEdgeRange(lo, hi int, fn func(i int, e Edge)) {
	for i := lo; i < hi; i++ {
		fn(i, g.Edge(i))
	}
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inCSR.offsets[v+1] - g.inCSR.offsets[v])
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outCSR.offsets[v+1] - g.outCSR.offsets[v])
}

// InEdges calls fn for each edge whose Dst is v, passing the canonical edge
// index, in ascending canonical order.
func (g *Graph) InEdges(v VertexID, fn func(edgeIndex int, e Edge)) {
	lo, hi := g.inCSR.offsets[v], g.inCSR.offsets[v+1]
	for _, ei := range g.inCSR.edgeIdx[lo:hi] {
		fn(int(ei), g.Edge(int(ei)))
	}
}

// OutEdges calls fn for each edge whose Src is v, passing the canonical edge
// index, in ascending canonical order.
func (g *Graph) OutEdges(v VertexID, fn func(edgeIndex int, e Edge)) {
	lo, hi := g.outCSR.offsets[v], g.outCSR.offsets[v+1]
	for _, ei := range g.outCSR.edgeIdx[lo:hi] {
		fn(int(ei), g.Edge(int(ei)))
	}
}

// InEdgeIndexes returns the canonical indexes of v's in-edges, ascending:
// the order InEdges visits. The slice aliases the graph; do not modify it.
func (g *Graph) InEdgeIndexes(v VertexID) []int32 {
	return g.inCSR.edgeIdx[g.inCSR.offsets[v]:g.inCSR.offsets[v+1]]
}

// OutEdgeIndexes returns the canonical indexes of v's out-edges, ascending:
// the order OutEdges visits. The slice aliases the graph; do not modify it.
func (g *Graph) OutEdgeIndexes(v VertexID) []int32 {
	return g.outCSR.edgeIdx[g.outCSR.offsets[v]:g.outCSR.offsets[v+1]]
}

// IsSelfish reports whether v has no out-edges. The paper calls such
// vertices "selfish": their value has no consumer, so Imitator never
// synchronizes their FT replicas during normal execution (§4.4).
func (g *Graph) IsSelfish(v VertexID) bool {
	return g.outCSR.offsets[v+1] == g.outCSR.offsets[v]
}

// NumSelfish counts vertices with no out-edges.
func (g *Graph) NumSelfish() int {
	n := 0
	for v := 0; v < g.numVertices; v++ {
		if g.outCSR.offsets[v+1] == g.outCSR.offsets[v] {
			n++
		}
	}
	return n
}

// Stats summarizes a graph for reports and DESIGN/EXPERIMENTS tables.
type Stats struct {
	NumVertices int
	NumEdges    int
	NumSelfish  int
	MaxInDeg    int
	MaxOutDeg   int
	AvgDeg      float64
}

// ComputeStats returns summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{NumVertices: g.numVertices, NumEdges: g.numEdges, NumSelfish: g.NumSelfish()}
	for v := VertexID(0); int(v) < g.numVertices; v++ {
		if d := g.InDegree(v); d > s.MaxInDeg {
			s.MaxInDeg = d
		}
		if d := g.OutDegree(v); d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
	}
	if g.numVertices > 0 {
		s.AvgDeg = float64(g.numEdges) / float64(g.numVertices)
	}
	return s
}

// Footprint itemizes the graph's resident bytes.
type Footprint struct {
	EndpointBytes int64 // canonical src/dst arrays (2 or 4 bytes per endpoint)
	WeightBytes   int64 // per-edge weights; 0 for unweighted graphs
	CSRBytes      int64 // both adjacencies: offsets + edge indexes
	TotalBytes    int64
	BytesPerEdge  float64
}

// MemoryFootprint accounts the graph's memory layout byte-exactly from the
// slice shapes (not the Go allocator's view).
func (g *Graph) MemoryFootprint() Footprint {
	var f Footprint
	const idxSize = 4 // int32 CSR entries
	f.EndpointBytes = int64(len(g.src16)+len(g.dst16))*2 + int64(len(g.src32)+len(g.dst32))*4
	f.WeightBytes = int64(len(g.wt)) * 8
	f.CSRBytes = int64(len(g.inCSR.offsets)+len(g.outCSR.offsets)+len(g.inCSR.edgeIdx)+len(g.outCSR.edgeIdx)) * idxSize
	f.TotalBytes = f.EndpointBytes + f.WeightBytes + f.CSRBytes
	if g.numEdges > 0 {
		f.BytesPerEdge = float64(f.TotalBytes) / float64(g.numEdges)
	}
	return f
}
