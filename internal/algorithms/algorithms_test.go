package algorithms

import (
	"math"
	"reflect"
	"testing"

	"imitator/internal/core"
	"imitator/internal/graph"
)

// oneEdge is a one-edge in-list from a source with value v, degrees info
// and weight w.
func oneEdge[V any](v V, info core.VertexInfo, w float64) core.InEdges[V] {
	return core.NewInEdges([]graph.VertexID{1}, []V{v}, []core.VertexInfo{info}, []float64{w})
}

func TestPageRankGather(t *testing.T) {
	p := NewPageRank(100)
	src, deg := 0.6, float64(3) // runtime division, matching Gather exactly
	got := p.Gather(2, oneEdge(src, core.VertexInfo{OutDeg: 3}, 1))
	if got != src/deg {
		t.Errorf("Gather = %v, want %v", got, src/deg)
	}
	if p.Gather(2, oneEdge(0.6, core.VertexInfo{OutDeg: 0}, 1)) != 0 {
		t.Error("zero out-degree source should contribute 0")
	}
}

func TestPageRankApply(t *testing.T) {
	p := NewPageRank(100)
	v, act := p.Apply(1, core.VertexInfo{}, 1.0, 2.0, true, 0)
	if !act {
		t.Error("PageRank should always scatter")
	}
	want := (1 - 0.85) + 0.85*2.0
	if v != want {
		t.Errorf("Apply = %v, want %v", v, want)
	}
	one, damp := 1.0, 0.85
	v, _ = p.Apply(1, core.VertexInfo{}, 1.0, 0, false, 0)
	if v != one-damp {
		t.Errorf("no-acc Apply = %v, want %v", v, one-damp)
	}
}

func TestPageRankFlags(t *testing.T) {
	p := NewPageRank(10)
	if !p.AlwaysActive() || !p.CanRecomputeSelfish() {
		t.Error("PageRank should be always-active and selfish-recomputable")
	}
	if _, act := p.Init(3, core.VertexInfo{}); !act {
		t.Error("Init should activate")
	}
}

func TestSSSPInit(t *testing.T) {
	s := NewSSSP(5)
	if d, act := s.Init(5, core.VertexInfo{}); d != 0 || !act {
		t.Errorf("source Init = %v, %v", d, act)
	}
	if d, act := s.Init(6, core.VertexInfo{}); !math.IsInf(d, 1) || !act {
		t.Errorf("non-source Init = %v, %v", d, act)
	}
}

func TestSSSPApplyRelaxation(t *testing.T) {
	s := NewSSSP(0)
	if v, act := s.Apply(1, core.VertexInfo{}, 10, 7, true, 0); v != 7 || !act {
		t.Errorf("improving relax = %v, %v", v, act)
	}
	if v, act := s.Apply(1, core.VertexInfo{}, 5, 7, true, 0); v != 5 || act {
		t.Errorf("non-improving relax = %v, %v", v, act)
	}
	if v, act := s.Apply(1, core.VertexInfo{}, 5, 0, false, 0); v != 5 || act {
		t.Errorf("no-acc relax = %v, %v", v, act)
	}
}

func TestSSSPGatherMerge(t *testing.T) {
	s := NewSSSP(0)
	if got := s.Gather(2, oneEdge(1.5, core.VertexInfo{}, 2.5)); got != 4 {
		t.Errorf("Gather = %v, want 4", got)
	}
	if s.Merge(3, 2) != 2 {
		t.Error("Merge should take the min")
	}
	if s.CanRecomputeSelfish() {
		t.Error("SSSP must not claim selfish recomputation")
	}
}

func TestCDApplyPicksMode(t *testing.T) {
	c := NewCD()
	acc := []core.LabelCount{{Label: 2, Count: 3}, {Label: 5, Count: 4}, {Label: 9, Count: 1}}
	if v, act := c.Apply(1, core.VertexInfo{}, 1, acc, true, 0); v != 5 || !act {
		t.Errorf("Apply = %v, %v, want 5, true", v, act)
	}
	// Tie breaks to the smaller label.
	tie := []core.LabelCount{{Label: 2, Count: 4}, {Label: 5, Count: 4}}
	if v, _ := c.Apply(1, core.VertexInfo{}, 1, tie, true, 0); v != 2 {
		t.Errorf("tie Apply = %v, want 2", v)
	}
	// Unchanged label should not scatter.
	if _, act := c.Apply(1, core.VertexInfo{}, 5, acc, true, 0); act {
		t.Error("unchanged label must not scatter")
	}
	if v, act := c.Apply(1, core.VertexInfo{}, 7, nil, false, 0); v != 7 || act {
		t.Error("no-acc Apply should keep the label quietly")
	}
}

func TestCDGather(t *testing.T) {
	c := NewCD()
	got := c.Gather(2, oneEdge(int32(9), core.VertexInfo{}, 2))
	if !reflect.DeepEqual(got, []core.LabelCount{{Label: 9, Count: 2}}) {
		t.Errorf("Gather = %v", got)
	}
}

func TestALSInitDeterministicAndSpread(t *testing.T) {
	a := NewALS(10, 4, 0.1)
	v1, act := a.Init(3, core.VertexInfo{})
	v2, _ := a.Init(3, core.VertexInfo{})
	if !act {
		t.Error("ALS vertices start active")
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Error("Init not deterministic")
	}
	v3, _ := a.Init(4, core.VertexInfo{})
	if reflect.DeepEqual(v1, v3) {
		t.Error("different vertices should differ")
	}
	for _, f := range v1 {
		if f < 0 || f >= 1 {
			t.Errorf("factor %v outside [0,1)", f)
		}
	}
}

func TestALSGatherAccumulates(t *testing.T) {
	a := NewALS(10, 2, 0.1)
	q := []float64{2, 3}
	acc := a.Gather(2, oneEdge(q, core.VertexInfo{}, 4))
	// q q^T = [4 6; 6 9]; b = 4*q = [8, 12]; count 1.
	want := []float64{4, 6, 6, 9, 8, 12, 1}
	if !reflect.DeepEqual(acc, want) {
		t.Errorf("Gather = %v, want %v", acc, want)
	}
	merged := a.Merge(acc, acc)
	if merged[0] != 8 || merged[6] != 2 {
		t.Errorf("Merge = %v", merged)
	}
}

func TestALSApplyAlternates(t *testing.T) {
	a := NewALS(10, 2, 0.1)
	old := []float64{0.5, 0.5}
	acc := a.Gather(2, oneEdge([]float64{2, 3}, core.VertexInfo{}, 4))
	// Vertex 3 is a user; users move on even iterations.
	moved, act := a.Apply(3, core.VertexInfo{}, old, acc, true, 0)
	if !act {
		t.Error("ALS always scatters")
	}
	if reflect.DeepEqual(moved, old) {
		t.Error("user should move on even iteration")
	}
	kept, _ := a.Apply(3, core.VertexInfo{}, old, acc, true, 1)
	if !reflect.DeepEqual(kept, old) {
		t.Error("user should hold on odd iteration")
	}
	// Vertex 15 is an item; items move on odd iterations.
	kept, _ = a.Apply(15, core.VertexInfo{}, old, acc, true, 0)
	if !reflect.DeepEqual(kept, old) {
		t.Error("item should hold on even iteration")
	}
}

func TestALSApplySolvesNormalEquations(t *testing.T) {
	a := NewALS(10, 2, 0.0)
	// Single rating r=4 against q=(1,0): solution should satisfy x[0]=4
	// (with lambda 0, x[1] unconstrained -> singular; expect fallback to
	// keep old).
	acc := a.Gather(2, oneEdge([]float64{1, 0}, core.VertexInfo{}, 4))
	old := []float64{0.1, 0.2}
	got, _ := a.Apply(0, core.VertexInfo{}, old, acc, true, 0)
	if !reflect.DeepEqual(got, old) {
		// If it solved despite singularity, the first factor must fit.
		if math.Abs(got[0]-4) > 1e-9 {
			t.Errorf("Apply = %v", got)
		}
	}
	// With ridge it must be solvable.
	a2 := NewALS(10, 2, 0.5)
	got2, _ := a2.Apply(0, core.VertexInfo{}, old, acc, true, 0)
	if reflect.DeepEqual(got2, old) {
		t.Error("ridge-regularized solve failed")
	}
	// (q q^T + 0.5 I) x = r q with q=(1,0): x = (4/1.5, 0).
	if math.Abs(got2[0]-4/1.5) > 1e-9 || math.Abs(got2[1]) > 1e-9 {
		t.Errorf("solution = %v, want (%v, 0)", got2, 4/1.5)
	}
}

func TestCodecsMatchPrograms(t *testing.T) {
	a := NewALS(10, 3, 0.1)
	v, _ := a.Init(1, core.VertexInfo{})
	buf := a.ValueCodec().Append(nil, v)
	got, rest, err := a.ValueCodec().Read(buf)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, v) {
		t.Error("ALS value codec round-trip failed")
	}
	acc := a.Gather(2, oneEdge(v, core.VertexInfo{}, 1))
	buf = a.AccCodec().Append(nil, acc)
	gotAcc, _, err := a.AccCodec().Read(buf)
	if err != nil || !reflect.DeepEqual(gotAcc, acc) {
		t.Error("ALS acc codec round-trip failed")
	}
}

// TestProgramsAllocFree: Gather and Apply run once per active vertex per
// superstep, so a shipped program must not allocate in them. The engine's
// zero-alloc superstep gate in core runs test doubles, not these programs.
func TestProgramsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	src := []graph.VertexID{1, 2, 3}
	info := []core.VertexInfo{{InDeg: 1, OutDeg: 2}, {InDeg: 2, OutDeg: 0}, {InDeg: 3, OutDeg: 3}}
	wt := []float64{1, 0.5, 2}
	checkAllocFree(t, NewPageRank(100), core.NewInEdges(src, []float64{0.5, 1, 2}, info, wt), 1)
	checkAllocFree(t, NewSSSP(0), core.NewInEdges(src, []float64{0, 3, math.Inf(1)}, info, wt), math.Inf(1))
	checkAllocFree(t, NewCC(), core.NewInEdges(src, []int32{4, 2, 9}, info, nil), 5)
	checkAllocFree(t, NewKCore(2), core.NewInEdges(src, []int32{2, Dead, 1}, info, nil), 3)
}

// checkAllocFree fails t if p's Gather over in followed by its Apply
// allocates.
func checkAllocFree[V any](t *testing.T, p core.Program[V, V], in core.InEdges[V], old V) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, func() {
		p.Apply(7, core.VertexInfo{InDeg: 3, OutDeg: 1}, old, p.Gather(7, in), true, 1)
	}); avg != 0 {
		t.Errorf("%s: Gather+Apply allocates %.1f times per vertex, want 0", p.Name(), avg)
	}
}
