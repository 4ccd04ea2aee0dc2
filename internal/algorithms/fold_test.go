package algorithms

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"imitator/internal/core"
	"imitator/internal/graph"
)

// checkFold checks on random in-edge lists that p's Gather equals Merge
// applied left to right over edge's one-edge contributions, bit for bit (as
// p's AccCodec encodes the accumulator). edge is the per-edge formula the
// program's fold must reproduce; value draws a source value.
func checkFold[V, A any](t *testing.T, p core.Program[V, A], edge func(v V, info core.VertexInfo, w float64) A, value func(*rand.Rand) V) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for trial := range 300 {
		n := 1 + r.Intn(24)
		src := make([]graph.VertexID, n)
		val := make([]V, n)
		info := make([]core.VertexInfo, n)
		var wt []float64 // every third list is unweighted
		if trial%3 != 0 {
			wt = make([]float64, n)
		}
		for k := range n {
			src[k] = graph.VertexID(r.Intn(1000))
			val[k] = value(r)
			info[k] = core.VertexInfo{InDeg: r.Int31n(4), OutDeg: r.Int31n(4)} // zero out-degree included
			if wt != nil {
				wt[k] = []float64{1, 0.5, 3, r.Float64() * 10}[r.Intn(4)]
			}
		}
		w := func(k int) float64 {
			if wt == nil {
				return 1
			}
			return wt[k]
		}
		want := edge(val[0], info[0], w(0))
		for k := 1; k < n; k++ {
			want = p.Merge(want, edge(val[k], info[k], w(k)))
		}
		got := p.Gather(graph.VertexID(r.Intn(1000)), core.NewInEdges(src, val, info, wt))
		codec := p.AccCodec()
		if g, x := codec.Append(nil, got), codec.Append(nil, want); !bytes.Equal(g, x) {
			t.Fatalf("%s trial %d (%d edges): Gather = %v, Merge fold = %v", p.Name(), trial, n, got, want)
		}
	}
}

// randFloat draws a value with the edge cases a fold must keep: ±0, +Inf
// and negative values.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	}
	return r.NormFloat64() * 3
}

func TestGatherFoldsLikeMerge(t *testing.T) {
	checkFold(t, NewPageRank(1000), func(v float64, info core.VertexInfo, _ float64) float64 {
		if info.OutDeg == 0 {
			return 0
		}
		return v / float64(info.OutDeg)
	}, func(r *rand.Rand) float64 { return math.Abs(randFloat(r)) }) // a rank is never negative or -0
	checkFold(t, NewSSSP(0), func(v float64, _ core.VertexInfo, w float64) float64 {
		return v + w
	}, randFloat)
	checkFold(t, NewCD(), func(v int32, _ core.VertexInfo, w float64) []core.LabelCount {
		return []core.LabelCount{{Label: v, Count: w}}
	}, func(r *rand.Rand) int32 { return r.Int31n(5) }) // labels repeat
	als := NewALS(10, 3, 0.1)
	checkFold(t, als, func(q []float64, _ core.VertexInfo, w float64) []float64 {
		d := als.Dim
		acc := make([]float64, als.accLen())
		for i := range d {
			for j := range d {
				acc[i*d+j] = q[i] * q[j]
			}
			acc[d*d+i] = w * q[i]
		}
		acc[d*d+d] = 1
		return acc
	}, func(r *rand.Rand) []float64 {
		q := make([]float64, als.Dim)
		for i := range q {
			if q[i] = randFloat(r); math.IsInf(q[i], 0) {
				q[i] = r.Float64()
			}
		}
		return q
	})
	checkFold(t, NewCC(), func(v int32, _ core.VertexInfo, _ float64) int32 {
		return v
	}, func(r *rand.Rand) int32 { return r.Int31n(100) - 50 })
	checkFold(t, NewKCore(2), func(v int32, _ core.VertexInfo, _ float64) int32 {
		if v == Dead {
			return 0
		}
		return 1
	}, func(r *rand.Rand) int32 { return r.Int31n(5) - 1 }) // Dead is -1
}
