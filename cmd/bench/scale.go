package main

import (
	"fmt"
	"os"

	"imitator/internal/core"
	"imitator/internal/experiments"
	"imitator/internal/gen"
	"imitator/internal/graph"
	"imitator/internal/hostpar"
)

// The -scale tier exercises the engine an order of magnitude past the
// catalog: a power-law graph defaulting to 22.4M edges (10x the largest
// catalog dataset). It measures three things the small probes cannot:
//
//  1. Parallel generation wall clock across a worker sweep 1..GOMAXPROCS.
//     The sharded generator returns the identical graph at every width
//     (guarded here by an edge-count cross-check, and bit-exactly by the
//     gen package's determinism tests), so the sweep isolates scaling.
//  2. The compact SoA+CSR layout's real memory footprint, next to what the
//     retired AoS []Edge layout would have used for the same graph.
//  3. A steady-state PageRank probe (short/long delta, like the superstep
//     probes) proving the per-superstep alloc discipline holds at scale.

// scaleSweep returns the generation worker counts to measure: powers of two
// up to the host's core count, always ending at hostpar.Limit().
func scaleSweep() []int {
	limit := hostpar.Limit()
	ws := []int{1}
	for w := 2; w < limit; w *= 2 {
		ws = append(ws, w)
	}
	if limit > 1 {
		ws = append(ws, limit)
	}
	return ws
}

func scaleProbe(opts experiments.Options, nVerts, nEdges int) (benchEntry, error) {
	// The dimensions are part of the ID so baseline comparisons only match
	// runs of the same graph: a CI smoke at 1.4M edges must not be
	// identity-checked against the checked-in 22.4M-edge entry.
	id := fmt.Sprintf("scale/pagerank/edgecut/%dv-%de", nVerts, nEdges)
	cfgFor := func(workers int) gen.PowerLawConfig {
		return gen.PowerLawConfig{
			NumVertices:     nVerts,
			NumEdges:        nEdges,
			Alpha:           2.0,
			SelfishFraction: 0.1,
			Seed:            0x5ca1e,
			Workers:         workers,
		}
	}

	genWall := make(map[string]float64)
	var g *graph.Graph
	for _, w := range scaleSweep() {
		var gw *graph.Graph
		wall, _, _, err := measure(func() error {
			var err error
			gw, err = gen.PowerLaw(cfgFor(w))
			return err
		})
		if err != nil {
			return benchEntry{}, fmt.Errorf("%s: gen workers=%d: %w", id, w, err)
		}
		genWall[fmt.Sprint(w)] = wall
		fmt.Fprintf(os.Stderr, "bench: %s gen workers=%d wall=%.2fs\n", id, w, wall)
		if g != nil && gw.NumEdges() != g.NumEdges() {
			return benchEntry{}, fmt.Errorf("%s: worker sweep changed the graph: %d vs %d edges",
				id, gw.NumEdges(), g.NumEdges())
		}
		g = gw
	}
	if g.NumEdges() != nEdges {
		return benchEntry{}, fmt.Errorf("%s: generated %d edges, want exactly %d", id, g.NumEdges(), nEdges)
	}
	fp := g.MemoryFootprint()

	// Steady-state PageRank: short/long runs of the same job, so the
	// per-superstep delta excludes generation, partitioning and load.
	cfg := core.DefaultConfig(core.EdgeCutMode, opts.Nodes)
	if opts.Workers > 0 {
		cfg.WorkersPerNode = opts.Workers
	}
	run := func(iters int) (experiments.RunSummary, float64, uint64, error) {
		w := experiments.Workload{Algo: "pagerank", Dataset: "scale", Iters: iters}
		var sum experiments.RunSummary
		wall, allocs, _, err := measure(func() error {
			var err error
			sum, err = experiments.RunWorkloadOn(w, g, cfg)
			return err
		})
		return sum, wall, allocs, err
	}
	const shortIters, span = 2, 4
	// Unmeasured warmup: the first load at this scale grows the heap by
	// hundreds of MB, and without it the short run pays all the growth —
	// enough to make the short run SLOWER than the long one and the
	// per-superstep delta negative.
	if _, _, _, err := run(1); err != nil {
		return benchEntry{}, fmt.Errorf("%s: warmup: %w", id, err)
	}
	_, shortWall, shortAllocs, err := run(shortIters)
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", id, err)
	}
	long, longWall, longAllocs, err := run(shortIters + span)
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", id, err)
	}

	return benchEntry{
		ID:          id,
		WallSeconds: longWall,
		Allocs:      longAllocs,
		SimSeconds:  long.SimSeconds,
		MsgBytes:    long.Metrics.TotalBytes(),
		Supersteps:  span,
		// Signed for the same reason as superstepProbe: an alloc-free steady
		// state plus GC noise must not wrap to 2^64.
		AllocsPerSuperstep: (float64(longAllocs) - float64(shortAllocs)) / span,
		WallPerSuperstep:   (longWall - shortWall) / span,

		ScaleVertices:         nVerts,
		ScaleEdges:            nEdges,
		GenWallSeconds:        genWall,
		FootprintBytes:        fp.TotalBytes,
		FootprintBytesPerEdge: fp.BytesPerEdge,
	}, nil
}
