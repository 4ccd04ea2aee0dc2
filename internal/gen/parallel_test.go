package gen

import (
	"runtime"
	"testing"

	"imitator/internal/graph"
	"imitator/internal/rng"
)

// fingerprint hashes a graph's exact edge sequence (order-sensitive) and
// weights, so two graphs compare equal only if they are identical.
func fingerprint(g *graph.Graph) uint64 {
	h := rng.Hash2(uint64(g.NumVertices()), uint64(g.NumEdges()))
	g.EachEdge(func(i int, e graph.Edge) {
		h = rng.Hash2(h, rng.Hash2(uint64(e.Src), uint64(e.Dst)))
		if e.Weight != 1 {
			// Weights are finite positives here; fold the bits in directly.
			h = rng.Hash2(h, uint64(int64(e.Weight*1e9)))
		}
	})
	return h
}

var workerSweep = []int{1, 2, 8}

// twoProcs raises GOMAXPROCS to at least 2 for the rest of the test, so a
// width above 1 runs its shards on two threads even where GOMAXPROCS is 1:
// on one thread the first goroutine may take every shard before the next
// one starts, and -race then sees no overlap between them.
func twoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestParallelPowerLawDeterminism: the sharded path returns the identical
// graph for every worker count, honors an exact edge target, and keeps the
// sink (selfish) vertices edge-free. It spans more than two genShardVerts
// shards, so the emit body runs on more than one goroutine at every width
// above 1.
func TestParallelPowerLawDeterminism(t *testing.T) {
	twoProcs(t)
	cfg := PowerLawConfig{
		NumVertices: 2*genShardVerts + 1000, NumEdges: 80000, Alpha: 2.0,
		SelfishFraction: 0.1, Seed: 42,
	}
	var want uint64
	for i, workers := range workerSweep {
		cfg.Workers = workers
		g, err := PowerLaw(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if g.NumEdges() != cfg.NumEdges {
			t.Fatalf("workers=%d: got %d edges, want exactly %d", workers, g.NumEdges(), cfg.NumEdges)
		}
		fp := fingerprint(g)
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("workers=%d graph differs from workers=1", workers)
		}
		if g.NumSelfish() < int(cfg.SelfishFraction*float64(cfg.NumVertices)) {
			t.Fatalf("workers=%d: selfish count %d below configured fraction", workers, g.NumSelfish())
		}
	}
	// A different seed must give a different graph.
	cfg.Workers, cfg.Seed = 1, 43
	g2, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(g2) == want {
		t.Fatal("different seeds produced identical graphs")
	}
}

// TestParallelRoadDeterminism builds more than two genShardEdges blocks of
// shortcut pairs, so both the row and the shortcut bodies run on more than
// one goroutine at every width above 1.
func TestParallelRoadDeterminism(t *testing.T) {
	twoProcs(t)
	cfg := RoadConfig{
		Width: 120, Height: 80, ShortcutFrac: 0.9,
		WeightMu: 0.4, WeightSigma: 1.2, Seed: 7,
	}
	lattice := 2 * ((cfg.Width-1)*cfg.Height + cfg.Width*(cfg.Height-1))
	var want uint64
	var wantEdges int
	for i, workers := range workerSweep {
		cfg.Workers = workers
		g, err := Road(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !g.Weighted() {
			t.Fatalf("workers=%d: road graph lost its weights", workers)
		}
		fp := fingerprint(g)
		if i == 0 {
			want, wantEdges = fp, g.NumEdges()
			if pairs := (wantEdges - lattice) / 2; pairs <= 2*genShardEdges {
				t.Fatalf("%d shortcut pairs fill at most two blocks of %d", pairs, genShardEdges)
			}
		} else if fp != want || g.NumEdges() != wantEdges {
			t.Fatalf("workers=%d graph differs from workers=1", workers)
		}
	}
}

// TestParallelCommunityDeterminism spans more than two genShardVerts shards
// of vertices, so both community bodies run on more than one goroutine at
// every width above 1.
func TestParallelCommunityDeterminism(t *testing.T) {
	twoProcs(t)
	cfg := CommunityConfig{
		NumVertices: 2*genShardVerts + 1000, NumCommunities: 20,
		IntraDegree: 6, InterDegree: 1.5, Seed: 5,
	}
	var want uint64
	var wantEdges int
	for i, workers := range workerSweep {
		cfg.Workers = workers
		g, err := Community(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := fingerprint(g)
		if i == 0 {
			want, wantEdges = fp, g.NumEdges()
			if wantEdges == 0 {
				t.Fatal("community graph came back empty")
			}
		} else if fp != want || g.NumEdges() != wantEdges {
			t.Fatalf("workers=%d graph differs from workers=1", workers)
		}
	}
}

// TestParallelPowerLawEmergentEdges covers the NumEdges == 0 path, where
// the count emerges from Alpha (~3|V|) and must still be worker-invariant.
func TestParallelPowerLawEmergentEdges(t *testing.T) {
	cfg := PowerLawConfig{NumVertices: 2000, Alpha: 2.1, Seed: 9}
	var want uint64
	var wantEdges int
	for i, workers := range workerSweep {
		cfg.Workers = workers
		g, err := PowerLaw(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := fingerprint(g)
		if i == 0 {
			want, wantEdges = fp, g.NumEdges()
			if wantEdges < cfg.NumVertices || wantEdges > 6*cfg.NumVertices {
				t.Fatalf("emergent edge count %d implausible for alpha=%v", wantEdges, cfg.Alpha)
			}
		} else if fp != want || g.NumEdges() != wantEdges {
			t.Fatalf("workers=%d graph differs from workers=1", workers)
		}
	}
}

// TestParallelPowerLawQuotaSqueeze drives the exact-target adjustment into
// its second (floor 0) phase: fewer target edges than non-sink vertices.
func TestParallelPowerLawQuotaSqueeze(t *testing.T) {
	cfg := PowerLawConfig{
		NumVertices: 1000, NumEdges: 300, Alpha: 2.0, Seed: 3, Workers: 2,
	}
	g, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != cfg.NumEdges {
		t.Fatalf("got %d edges, want exactly %d", g.NumEdges(), cfg.NumEdges)
	}
}

// TestPowerLawPinned pins the exact edges PowerLaw emits, on both paths: the
// repository benchmark's graph and one emergent-edge config, at Workers 0
// (sequential) and 1 and 3 (sharded). A sampler change that moves a single
// draw changes a fingerprint. The literals were recorded with the plain
// binary search over the prefix table.
func TestPowerLawPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 923 k-edge benchmark graph")
	}
	bench := PowerLawConfig{NumVertices: 64000, NumEdges: 923000, Alpha: 2.0, SelfishFraction: 0.1, Seed: 1}
	emergent := PowerLawConfig{NumVertices: 5000, Alpha: 1.8, SelfishFraction: 0.2, Seed: 11}
	for _, tc := range []struct {
		name    string
		cfg     PowerLawConfig
		workers int
		edges   int
		fp      uint64
	}{
		{"bench/w0", bench, 0, 923000, 0x674656f7cd69282c},
		{"bench/w1", bench, 1, 923000, 0xbadf83eb7928c651},
		{"bench/w3", bench, 3, 923000, 0xbadf83eb7928c651},
		{"emergent/w0", emergent, 0, 17386, 0xe36b99e3220f1a56},
		{"emergent/w1", emergent, 1, 17087, 0x1db8532f56931933},
		{"emergent/w3", emergent, 3, 17087, 0x1db8532f56931933},
	} {
		tc.cfg.Workers = tc.workers
		g, err := PowerLaw(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g.NumEdges() != tc.edges || fingerprint(g) != tc.fp {
			t.Errorf("%s: %d edges, fingerprint %#x; want %d, %#x", tc.name, g.NumEdges(), fingerprint(g), tc.edges, tc.fp)
		}
	}
}

// BenchmarkPowerLaw times PowerLaw on the repository benchmark's graph
// (64 k vertices, 923 k edges, sharded path at one worker), the gen.powerlaw
// layer of setup_s. It profiles with one command:
//
//	go test -run '^$' -bench PowerLaw -cpuprofile cpu.prof ./internal/gen
func BenchmarkPowerLaw(b *testing.B) {
	cfg := PowerLawConfig{NumVertices: 64000, NumEdges: 923000, Alpha: 2.0, SelfishFraction: 0.1, Seed: 1, Workers: 1}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := PowerLaw(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
