package experiments

import (
	"fmt"

	"imitator/internal/gen"
	"imitator/internal/hostpar"
)

// scaleIters is the scale tier's PageRank length: enough supersteps for the
// steady state to dominate load, few enough that the 22.4M-edge job stays
// around ten host seconds.
const scaleIters = 6

// Scale runs PageRank an order of magnitude past the catalog (beyond the
// paper): a sharded-generator power-law graph of 22.4M edges, 10x the largest
// catalog dataset and large enough that the graph layout needs its 32-bit
// endpoint arrays. It reports the compact layout's byte-exact footprint next
// to the job's simulated outputs; host wall clock belongs to benchmark/.
func Scale(o Options) (*Table, error) {
	o = o.orDefaults()
	nVerts, nEdges := 640_000, 22_400_000
	if o.Small {
		nVerts, nEdges = 40_000, 1_400_000
	}
	// The sharded generator returns the same graph at every width >= 1, so
	// generating on all host cores is result-neutral.
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices:     nVerts,
		NumEdges:        nEdges,
		Alpha:           2.0,
		SelfishFraction: 0.1,
		Seed:            0x5ca1e,
		Workers:         hostpar.Limit(),
	})
	if err != nil {
		return nil, err
	}
	w := Workload{Algo: "pagerank", Dataset: "scale", Iters: scaleIters}
	s, err := RunWorkloadOn(w, g, withREP(baseEdgeCut(o), 1))
	if err != nil {
		return nil, err
	}
	fp := g.MemoryFootprint()
	return &Table{
		ID:     "scale",
		Title:  fmt.Sprintf("Scale tier (edge-cut PageRank, REP K=1, %d iters, %d nodes)", scaleIters, o.Nodes),
		Header: []string{"|V|", "|E|", "graph footprint", "bytes/edge", "sim (s)", "msg bytes"},
		Rows: [][]string{{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()), mb(fp.TotalBytes),
			fmt.Sprintf("%.1f", fp.BytesPerEdge), f3(s.SimSeconds), fmt.Sprint(s.Metrics.TotalBytes()),
		}},
		Notes: "the sharded generator's graph is identical at every worker count; footprint is the SoA+CSR layout's slice bytes",
	}, nil
}
