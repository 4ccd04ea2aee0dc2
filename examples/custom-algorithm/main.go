// custom-algorithm shows how to implement a new vertex program against the
// imitator.Program interface and run it fault-tolerantly without touching
// the engine — the paper's "no source code changes to graph algorithms"
// property. The program computes each vertex's in-neighborhood weighted
// degree percentile rank ("local influence"): influence(v) converges to the
// share of v's in-neighbors whose influence is below v's own, seeded from
// normalized degree.
package main

import (
	"fmt"
	"log"
	"sort"

	"imitator/pkg/imitator"
)

// influence is the custom vertex program. V = float64 (current influence
// score), A = []float64{sum of in-neighbor scores, in-neighbor count}.
type influence struct {
	maxDeg float64
}

var _ imitator.Program[float64, []float64] = (*influence)(nil)

func (p *influence) Name() string              { return "influence" }
func (p *influence) AlwaysActive() bool        { return true }
func (p *influence) CanRecomputeSelfish() bool { return false }

func (p *influence) Init(_ imitator.VertexID, info imitator.VertexInfo) (float64, bool) {
	return float64(info.InDeg) / p.maxDeg, true
}

// Gather folds the vertex's local in-edges, edge 0 first. Vertex-cut Merges
// per-node folds, so a fold must equal Merge applied edge by edge, as these
// two left-to-right sums do. Apply compares the score against the mean.
func (p *influence) Gather(_ imitator.VertexID, in imitator.InEdges[float64]) []float64 {
	sum := in.Value(0)
	for k := 1; k < in.Len(); k++ {
		sum += in.Value(k)
	}
	return []float64{sum, float64(in.Len())}
}

func (p *influence) Merge(a, b []float64) []float64 {
	return []float64{a[0] + b[0], a[1] + b[1]}
}

// Apply: move the score toward "how far above the neighborhood mean am I",
// damped for stability.
func (p *influence) Apply(_ imitator.VertexID, info imitator.VertexInfo, old float64, acc []float64, hasAcc bool, _ int) (float64, bool) {
	if !hasAcc || acc[1] == 0 {
		return old, true
	}
	mean := acc[0] / acc[1]
	target := 0.5 + (old-mean)/2
	if target < 0 {
		target = 0
	}
	if target > 1 {
		target = 1
	}
	return old*0.5 + target*0.5, true
}

func (p *influence) ValueCodec() imitator.Codec[float64] { return imitator.Float64Codec{} }
func (p *influence) AccCodec() imitator.Codec[[]float64] { return imitator.VecCodec{Dim: 2} }

func main() {
	g := imitator.MustLoadDataset("dblp")
	maxDeg := 1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(imitator.VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	prog := &influence{maxDeg: float64(maxDeg)}

	// The custom program runs under the same fault-tolerance machinery as
	// the built-ins: crash two nodes, recover by migration.
	cfg := imitator.New(
		imitator.WithNodes(6),
		imitator.WithFTStrategy(imitator.Migration(
			imitator.ReplicationK(2), imitator.ReplicationSelfish(false))),
		imitator.WithIterations(12),
		imitator.WithFailures(imitator.Crash(6, imitator.FailBeforeBarrier, 1, 4)),
	)

	res, err := imitator.Run(cfg, g, prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom %q program: %d iterations, %.3f simulated seconds\n",
		prog.Name(), res.Iterations, res.SimSeconds)
	for _, r := range res.Recoveries {
		fmt.Printf("survived: %s\n", r)
	}

	type scored struct {
		v imitator.VertexID
		s float64
	}
	top := make([]scored, g.NumVertices())
	for v, s := range res.Values {
		top[v] = scored{imitator.VertexID(v), s}
	}
	sort.Slice(top, func(a, b int) bool { return top[a].s > top[b].s })
	fmt.Println("most locally influential vertices:")
	for _, t := range top[:5] {
		fmt.Printf("  vertex %6d  influence %.3f (in-degree %d)\n", t.v, t.s, g.InDegree(t.v))
	}
}
