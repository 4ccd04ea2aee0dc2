package graph

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"imitator/internal/rng"
)

func sample() *Graph {
	// 1->2, 1->3, 2->3, 3->1, 4->3, 4 has no in-edges, 0 isolated.
	return MustNew(5, []Edge{
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 2},
		{Src: 2, Dst: 3, Weight: 3},
		{Src: 3, Dst: 1, Weight: 4},
		{Src: 4, Dst: 3, Weight: 5},
	})
}

func TestCounts(t *testing.T) {
	g := sample()
	if g.NumVertices() != 5 {
		t.Errorf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
}

func TestDegrees(t *testing.T) {
	g := sample()
	wantIn := []int{0, 1, 1, 3, 0}
	wantOut := []int{0, 2, 1, 1, 1}
	for v := 0; v < 5; v++ {
		if got := g.InDegree(VertexID(v)); got != wantIn[v] {
			t.Errorf("InDegree(%d) = %d, want %d", v, got, wantIn[v])
		}
		if got := g.OutDegree(VertexID(v)); got != wantOut[v] {
			t.Errorf("OutDegree(%d) = %d, want %d", v, got, wantOut[v])
		}
	}
}

func TestInEdges(t *testing.T) {
	g := sample()
	var weights []float64
	g.InEdges(3, func(_ int, e Edge) {
		if e.Dst != 3 {
			t.Errorf("InEdges(3) yielded edge with Dst %d", e.Dst)
		}
		weights = append(weights, e.Weight)
	})
	if len(weights) != 3 {
		t.Fatalf("InEdges(3) yielded %d edges, want 3", len(weights))
	}
	sum := weights[0] + weights[1] + weights[2]
	if sum != 2+3+5 {
		t.Errorf("in-edge weight sum = %v, want 10", sum)
	}
	for v := range VertexID(g.NumVertices()) {
		var visited []int32
		g.InEdges(v, func(i int, _ Edge) { visited = append(visited, int32(i)) })
		if got := g.InEdgeIndexes(v); !slices.Equal(got, visited) {
			t.Errorf("InEdgeIndexes(%d) = %v, InEdges visits %v", v, got, visited)
		}
	}
}

func TestOutEdges(t *testing.T) {
	g := sample()
	count := 0
	g.OutEdges(1, func(_ int, e Edge) {
		if e.Src != 1 {
			t.Errorf("OutEdges(1) yielded edge with Src %d", e.Src)
		}
		count++
	})
	if count != 2 {
		t.Errorf("OutEdges(1) yielded %d edges, want 2", count)
	}
	for v := range VertexID(g.NumVertices()) {
		var visited []int32
		g.OutEdges(v, func(i int, _ Edge) { visited = append(visited, int32(i)) })
		if got := g.OutEdgeIndexes(v); !slices.Equal(got, visited) {
			t.Errorf("OutEdgeIndexes(%d) = %v, OutEdges visits %v", v, got, visited)
		}
	}
}

func TestSelfish(t *testing.T) {
	g := sample()
	if !g.IsSelfish(0) || !g.IsSelfish(4) == false && g.IsSelfish(4) {
		// vertex 4 has out-edge to 3, so not selfish; 0 has none.
	}
	if !g.IsSelfish(0) {
		t.Error("vertex 0 should be selfish (isolated)")
	}
	if g.IsSelfish(4) {
		t.Error("vertex 4 has an out-edge; not selfish")
	}
	if got := g.NumSelfish(); got != 1 {
		t.Errorf("NumSelfish = %d, want 1", got)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	_, err := New(2, []Edge{{Src: 0, Dst: 5}})
	if !errors.Is(err, ErrVertexOutOfRange) {
		t.Fatalf("err = %v, want ErrVertexOutOfRange", err)
	}
}

func TestNegativeVertexCountRejected(t *testing.T) {
	if _, err := New(-1, nil); err == nil {
		t.Fatal("expected error for negative vertex count")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustNew(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.NumSelfish() != 0 {
		t.Error("empty graph should have zero counts")
	}
}

func TestSelfLoop(t *testing.T) {
	g := MustNew(1, []Edge{{Src: 0, Dst: 0, Weight: 1}})
	if g.InDegree(0) != 1 || g.OutDegree(0) != 1 {
		t.Error("self-loop should count in both degree directions")
	}
}

func TestStats(t *testing.T) {
	s := sample().ComputeStats()
	if s.MaxInDeg != 3 || s.MaxOutDeg != 2 || s.NumSelfish != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgDeg != 1.0 {
		t.Errorf("AvgDeg = %v, want 1.0", s.AvgDeg)
	}
}

func TestMaxDegree(t *testing.T) {
	if got := sample().MaxDegree(); got != 4 { // vertex 3: in 3 + out 1
		t.Errorf("MaxDegree = %d, want 4", got)
	}
}

// TestBuildCSRKeysWidthInvariance sorts more than two csrMinShard shards of
// keys at host widths 1 and 2, so both hostpar bodies of buildCSRKeys run on
// two goroutines, and checks that the CSR does not depend on the width.
func TestBuildCSRKeysWidthInvariance(t *testing.T) {
	const n = 1000
	r := rng.New(5)
	keys := make([]uint16, 2*csrMinShard+1000)
	for i := range keys {
		keys[i] = uint16(r.Intn(n))
	}
	build := func(width int) csr {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		return buildCSRKeys(n, keys)
	}
	want, got := build(1), build(2)
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.edgeIdx, want.edgeIdx) {
		t.Fatal("CSR differs between host widths 1 and 2")
	}
}

// Property: CSR traversal covers every edge exactly once, in both directions.
func TestCSRCoversAllEdges(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		m := r.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: VertexID(r.Intn(n)), Dst: VertexID(r.Intn(n)), Weight: 1}
		}
		g := MustNew(n, edges)
		seenIn := make([]bool, m)
		seenOut := make([]bool, m)
		for v := 0; v < n; v++ {
			g.InEdges(VertexID(v), func(i int, e Edge) {
				if seenIn[i] || e.Dst != VertexID(v) {
					t.Errorf("bad in-edge visit %d", i)
				}
				seenIn[i] = true
			})
			g.OutEdges(VertexID(v), func(i int, e Edge) {
				if seenOut[i] || e.Src != VertexID(v) {
					t.Errorf("bad out-edge visit %d", i)
				}
				seenOut[i] = true
			})
		}
		for i := 0; i < m; i++ {
			if !seenIn[i] || !seenOut[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sums equal edge count.
func TestDegreeSumsEqualEdges(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(30)
		m := r.Intn(100)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: VertexID(r.Intn(n)), Dst: VertexID(r.Intn(n))}
		}
		g := MustNew(n, edges)
		sumIn, sumOut := 0, 0
		for v := 0; v < n; v++ {
			sumIn += g.InDegree(VertexID(v))
			sumOut += g.OutDegree(VertexID(v))
		}
		return sumIn == m && sumOut == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
