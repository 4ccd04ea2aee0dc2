package gen

// Sharded deterministic generation (the Workers >= 1 paths).
//
// The sequential generators draw every random decision from one stream, so
// edge i depends on all draws before it and the emission loop cannot be
// split. The parallel paths restructure generation so that randomness is
// consumed in fixed, worker-independent units:
//
//   - The work is cut into FIXED shards (4096 vertices, 8192 edges, or one
//     lattice row) whose boundaries depend only on the graph dimensions —
//     never on the worker count.
//   - Each shard derives a private rng stream from (Seed, tag, shard) via
//     rng.Hash2, so the draws inside a shard are the same no matter which
//     worker executes it or in what order shards complete.
//   - Every edge's final position is computed up front (per-vertex quota
//     prefix sums, closed-form lattice offsets, or per-shard count prefix
//     sums), so workers write disjoint index ranges of the SoA endpoint
//     arrays and no append-order races exist.
//
// Together these make the output a pure function of the config seed: the
// same graph comes back for Workers 1, 2 or 64 (covered by TestParallel*
// determinism tests). The Workers == 0 graphs differ — they are pinned by
// checked-in benchmark baselines and must stay byte-identical — so the two
// paths coexist behind the config switch.

import (
	"imitator/internal/graph"
	"imitator/internal/hostpar"
	"imitator/internal/rng"
)

const (
	// genShardVerts is the fixed vertex-shard width for per-vertex emission.
	genShardVerts = 4096
	// genShardEdges is the fixed edge-block width for per-edge emission.
	genShardEdges = 8192
)

// Stream tags: each independent randomness consumer hashes its own tag into
// the seed so streams never collide across uses or generators.
const (
	tagPlan     uint64 = 0x706c616e01 // sequential planning stream
	tagQuota    uint64 = 0x71756f7401 // per-vertex fractional rounding
	tagEmit     uint64 = 0x656d697401 // power-law per-shard emission
	tagRow      uint64 = 0x726f7701   // road per-row lattice weights
	tagShortcut uint64 = 0x73686f7201 // road shortcut blocks
	tagComm     uint64 = 0x636f6d6d01 // community per-shard emission
)

// streamSeed derives the rng seed for one shard of one consumer.
func streamSeed(seed, tag, shard uint64) uint64 {
	return rng.Hash2(rng.Hash2(seed, tag), shard)
}

// hashUnit maps (seed, tag, i) to a uniform float64 in [0, 1) without
// constructing a stream — used for independent per-item coin flips.
func hashUnit(seed, tag, i uint64) float64 {
	return float64(rng.Hash2(rng.Hash2(seed, tag), i)>>11) / (1 << 53)
}

func numShards(n, width int) int { return (n + width - 1) / width }

// powerLawParallel plans exact per-vertex out-degree quotas sequentially
// (O(n)), then emits edges shard-parallel into precomputed positions.
func powerLawParallel(cfg PowerLawConfig) (*graph.Graph, error) {
	n := cfg.NumVertices
	planR := rng.New(rng.Hash2(cfg.Seed, tagPlan))
	sink, deg, dsts := powerLawPlan(cfg, planR)

	// Per-vertex quotas: floor plus an independent hashed coin for the
	// fraction (so rounding needs no shared stream), with the legacy
	// at-least-one floor for non-sinks.
	quota := make([]int32, n)
	sumQ := 0
	for v := 0; v < n; v++ {
		if sink[v] {
			continue
		}
		d := deg[v]
		di := int(d)
		if hashUnit(cfg.Seed, tagQuota, uint64(v)) < d-float64(di) {
			di++
		}
		if di == 0 {
			di = 1
		}
		quota[v] = int32(di)
		sumQ += di
	}

	// Exact-target adjustment: walk a planned permutation, shaving quotas
	// down to 1 (then to 0 if still over) or topping them up, so the emitted
	// count equals NumEdges exactly.
	if cfg.NumEdges > 0 && sumQ != cfg.NumEdges {
		adj := planR.Perm(n)
		if sumQ > cfg.NumEdges {
			for _, floor := range []int32{1, 0} {
				for _, v := range adj {
					if sumQ == cfg.NumEdges {
						break
					}
					if !sink[v] && quota[v] > floor {
						quota[v]--
						sumQ--
					}
				}
				if sumQ == cfg.NumEdges {
					break
				}
			}
		}
		for sumQ < cfg.NumEdges {
			for _, v := range adj {
				if sumQ == cfg.NumEdges {
					break
				}
				if !sink[v] {
					quota[v]++
					sumQ++
				}
			}
		}
	}

	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int(quota[v])
	}
	m := off[n]

	src := make([]graph.VertexID, m)
	dst := make([]graph.VertexID, m)
	shards := numShards(n, genShardVerts)
	hostpar.For(shards, cfg.Workers, func(sh int) {
		r := rng.New(streamSeed(cfg.Seed, tagEmit, uint64(sh)))
		lo, hi := sh*genShardVerts, (sh+1)*genShardVerts
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			q := int(quota[v])
			if q == 0 {
				continue
			}
			base := off[v]
			for k := 0; k < q; k++ {
				d := sampleZipfDst(r, dsts, n, graph.VertexID(v))
				src[base+k] = graph.VertexID(v)
				dst[base+k] = d
			}
		}
	})
	return graph.NewFromSOA(n, src, dst, nil)
}

// sampleZipfDst draws a destination from the rank-weighted table, rejecting
// self-loops for up to 16 tries like the sequential path; the deterministic
// fallback (the next vertex) keeps quotas exact.
func sampleZipfDst(r *rng.Source, dsts *zipfTable, n int, src graph.VertexID) graph.VertexID {
	for tries := 0; tries < 16; tries++ {
		if d := dsts.sample(r); d != src {
			return d
		}
	}
	return graph.VertexID((int(src) + 1) % n)
}

// roadParallel emits the lattice row-parallel (each edge's position has a
// closed form) and the shortcuts block-parallel.
func roadParallel(cfg RoadConfig) (*graph.Graph, error) {
	w, h := cfg.Width, cfg.Height
	n := w * h
	weighted := cfg.WeightMu != 0 || cfg.WeightSigma != 0

	// Entries per row: every cell except the last emits a right pair, every
	// cell emits a down pair unless on the bottom row; a pair is 2 entries.
	rowEntries := func(y int) int {
		e := (w - 1) * 2
		if y+1 < h {
			e += w * 2
		}
		return e
	}
	rowBase := make([]int, h+1)
	for y := 0; y < h; y++ {
		rowBase[y+1] = rowBase[y] + rowEntries(y)
	}
	latticeEntries := rowBase[h]
	shortcutPairs := int(cfg.ShortcutFrac * float64(latticeEntries/2))
	m := latticeEntries + shortcutPairs*2

	src := make([]graph.VertexID, m)
	dst := make([]graph.VertexID, m)
	var wt []float64
	if weighted {
		wt = make([]float64, m)
	}
	addBoth := func(i int, a, b graph.VertexID, weight float64) {
		src[i], dst[i] = a, b
		src[i+1], dst[i+1] = b, a
		if weighted {
			wt[i], wt[i+1] = weight, weight
		}
	}
	at := func(x, y int) graph.VertexID { return graph.VertexID(y*w + x) }

	// Lattice rows: one shard per row, one weight draw per pair in cell
	// order (right pair, then down pair), mirroring the sequential order
	// within the row.
	hostpar.For(h, cfg.Workers, func(y int) {
		r := rng.New(streamSeed(cfg.Seed, tagRow, uint64(y)))
		draw := func() float64 {
			if !weighted {
				return 1
			}
			return r.LogNormal(cfg.WeightMu, cfg.WeightSigma)
		}
		hasDown := y+1 < h
		i := rowBase[y]
		for x := 0; x < w; x++ {
			if x+1 < w {
				addBoth(i, at(x, y), at(x+1, y), draw())
				i += 2
			}
			if hasDown {
				addBoth(i, at(x, y), at(x, y+1), draw())
				i += 2
			}
		}
	})

	// Shortcuts: fixed blocks, redraw-until-distinct so every slot fills
	// (the sequential path instead skips colliding draws, so its count
	// wobbles; here the planned positions must all be written).
	blocks := numShards(shortcutPairs, genShardEdges)
	hostpar.For(blocks, cfg.Workers, func(b int) {
		r := rng.New(streamSeed(cfg.Seed, tagShortcut, uint64(b)))
		lo, hi := b*genShardEdges, (b+1)*genShardEdges
		if hi > shortcutPairs {
			hi = shortcutPairs
		}
		for p := lo; p < hi; p++ {
			var a, bb graph.VertexID
			for {
				a = graph.VertexID(r.Intn(n))
				bb = graph.VertexID(r.Intn(n))
				if a != bb {
					break
				}
			}
			weight := 1.0
			if weighted {
				weight = r.LogNormal(cfg.WeightMu, cfg.WeightSigma)
			}
			addBoth(latticeEntries+p*2, a, bb, weight)
		}
	})
	return graph.NewFromSOA(n, src, dst, wt)
}

// communityParallel assigns communities sequentially (cheap O(n)), then
// emits per-vertex edges shard-parallel into per-shard buffers stitched in
// shard order (emission counts are draw-dependent, so positions cannot be
// precomputed the way the other generators do).
func communityParallel(cfg CommunityConfig) (*graph.Graph, error) {
	n := cfg.NumVertices
	planR := rng.New(rng.Hash2(cfg.Seed, tagPlan))
	comm := make([]int, n)
	for v := range comm {
		comm[v] = planR.Intn(cfg.NumCommunities)
	}
	members := make([][]graph.VertexID, cfg.NumCommunities)
	for v, c := range comm {
		members[c] = append(members[c], graph.VertexID(v))
	}

	shards := numShards(n, genShardVerts)
	shardSrc := make([][]graph.VertexID, shards)
	shardDst := make([][]graph.VertexID, shards)
	hostpar.For(shards, cfg.Workers, func(sh int) {
		r := rng.New(streamSeed(cfg.Seed, tagComm, uint64(sh)))
		lo, hi := sh*genShardVerts, (sh+1)*genShardVerts
		if hi > n {
			hi = n
		}
		var bufS, bufD []graph.VertexID
		addBoth := func(a, b graph.VertexID) {
			bufS = append(bufS, a, b)
			bufD = append(bufD, b, a)
		}
		for v := lo; v < hi; v++ {
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
		shardSrc[sh], shardDst[sh] = bufS, bufD
	})

	off := make([]int, shards+1)
	for sh := 0; sh < shards; sh++ {
		off[sh+1] = off[sh] + len(shardSrc[sh])
	}
	m := off[shards]
	src := make([]graph.VertexID, m)
	dst := make([]graph.VertexID, m)
	hostpar.For(shards, cfg.Workers, func(sh int) {
		copy(src[off[sh]:], shardSrc[sh])
		copy(dst[off[sh]:], shardDst[sh])
	})
	return graph.NewFromSOA(n, src, dst, nil)
}
