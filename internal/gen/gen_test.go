package gen

import (
	"math"
	"testing"

	"imitator/internal/graph"
	"imitator/internal/rng"
)

func TestPowerLawBasics(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{NumVertices: 2000, NumEdges: 10000, Alpha: 2.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 10000 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	for i := range g.NumEdges() {
		e := g.Edge(i)
		if e.Src == e.Dst {
			t.Fatal("self-loop generated")
		}
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	cfg := PowerLawConfig{NumVertices: 500, NumEdges: 2000, Alpha: 2.0, Seed: 7}
	a, _ := PowerLaw(cfg)
	b, _ := PowerLaw(cfg)
	for i := range a.NumEdges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs between identical seeds", i)
		}
	}
	cfg.Seed = 8
	c, _ := PowerLaw(cfg)
	diff := 0
	for i := range a.NumEdges() {
		if a.Edge(i) != c.Edge(i) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical graphs")
	}
}

func TestPowerLawSkew(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{NumVertices: 2000, NumEdges: 20000, Alpha: 2.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	// A power-law graph's hub must have far more than average in-degree.
	if float64(s.MaxInDeg) < 20*s.AvgDeg {
		t.Errorf("max in-degree %d too small for power law (avg %v)", s.MaxInDeg, s.AvgDeg)
	}
}

func TestPowerLawAlphaControlsSkew(t *testing.T) {
	// Lower alpha -> heavier tail -> larger max degree (paper Table 4:
	// alpha 1.8 has 673M edges vs 39M at 2.2 for fixed |V|; at fixed |E|
	// the hub concentration still grows as alpha falls).
	flat, _ := PowerLaw(PowerLawConfig{NumVertices: 3000, NumEdges: 30000, Alpha: 2.2, Seed: 5})
	skewed, _ := PowerLaw(PowerLawConfig{NumVertices: 3000, NumEdges: 30000, Alpha: 1.6, Seed: 5})
	if skewed.ComputeStats().MaxInDeg <= flat.ComputeStats().MaxInDeg {
		t.Errorf("alpha=1.6 max in-degree %d not above alpha=2.2's %d",
			skewed.ComputeStats().MaxInDeg, flat.ComputeStats().MaxInDeg)
	}
}

func TestPowerLawSelfishFraction(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{NumVertices: 4000, NumEdges: 20000, Alpha: 2.0, SelfishFraction: 0.15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(g.NumSelfish()) / float64(g.NumVertices())
	if frac < 0.14 {
		t.Errorf("selfish fraction %v below requested 0.15", frac)
	}
	if frac > 0.6 {
		t.Errorf("selfish fraction %v implausibly high", frac)
	}
}

func TestPowerLawValidation(t *testing.T) {
	if _, err := PowerLaw(PowerLawConfig{NumVertices: 1, NumEdges: 5, Alpha: 2}); err == nil {
		t.Error("expected error for 1 vertex")
	}
	if _, err := PowerLaw(PowerLawConfig{NumVertices: 10, NumEdges: 5, Alpha: 0}); err == nil {
		t.Error("expected error for alpha=0")
	}
	if _, err := PowerLaw(PowerLawConfig{NumVertices: 10, NumEdges: 5, Alpha: 2, SelfishFraction: 1.0}); err == nil {
		t.Error("expected error for selfish=1.0")
	}
	for _, workers := range []int{0, 1} {
		for _, tc := range []struct {
			name string
			cfg  PowerLawConfig
		}{
			{"selfish=NaN", PowerLawConfig{NumVertices: 100, NumEdges: 300, Alpha: 2, SelfishFraction: math.NaN()}},
			{"alpha=NaN", PowerLawConfig{NumVertices: 100, NumEdges: 300, Alpha: math.NaN()}},
			{"edges=-1", PowerLawConfig{NumVertices: 100, NumEdges: -1, Alpha: 2}},
		} {
			tc.cfg.Workers = workers
			if _, err := PowerLaw(tc.cfg); err == nil {
				t.Errorf("workers=%d: expected error for %s", workers, tc.name)
			}
		}
	}
}

// lowerBound is the plain binary search the guide table stands in for: the
// smallest v with prefix[v+1] >= x.
func lowerBound(prefix []float64, x float64) int {
	lo, hi := 0, len(prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if prefix[mid+1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfTableMatchesBinarySearch: the guide table answers every draw with
// the plain lower bound. Tables come from Zipf weights at exponents from flat
// to so steep that most weights underflow to zero (runs of equal prefix
// sums), and from prefix sums placed on, or one ulp below, bucket thresholds,
// where a bucket estimate one off would miss the answer. Draws are random,
// 0, total, and every threshold and prefix sum and their neighbouring floats.
func TestZipfTableMatchesBinarySearch(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.Intn(300)
		prefix := make([]float64, n+1)
		if trial%2 == 0 {
			s := []float64{0, 0.5, 1, 1.25, 3, 50, 400}[trial/2%7]
			for v, rk := range r.Perm(n) {
				prefix[v+1] = prefix[v] + math.Pow(float64(rk+1), -s)
			}
		} else {
			// Snap each sum to a threshold of the final total, or one ulp
			// below it: step is fixed by the total, set up front.
			total := 1 + r.Float64()*float64(n)
			step := total / float64(n)
			for v := 1; v < n; v++ {
				x := float64(r.Intn(n)) * step
				if r.Intn(2) == 0 {
					x = math.Nextafter(x, 0)
				}
				prefix[v] = max(prefix[v-1], min(x, total))
			}
			prefix[n] = total
		}
		z := newZipfTable(prefix)
		xs := []float64{0, z.total}
		for b := 0; b <= n; b++ {
			xs = append(xs, z.threshold(b))
		}
		xs = append(xs, z.prefix...)
		for k := 0; k < 200; k++ {
			xs = append(xs, r.Float64()*z.total)
		}
		for _, x0 := range xs {
			for _, x := range []float64{x0, math.Nextafter(x0, 0), math.Nextafter(x0, math.Inf(1))} {
				if x < 0 || x > z.total {
					continue
				}
				if got, want := z.lowerBound(x), lowerBound(z.prefix, x); got != want {
					t.Fatalf("trial %d n=%d x=%v: guide table gives %d, binary search %d", trial, n, x, got, want)
				}
			}
		}
	}
}

func TestRoadStructure(t *testing.T) {
	g, err := Road(RoadConfig{Width: 10, Height: 8, WeightMu: 0.4, WeightSigma: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 80 {
		t.Errorf("NumVertices = %d, want 80", g.NumVertices())
	}
	// Lattice edges: (W-1)*H horizontal + W*(H-1) vertical, both directions.
	want := 2 * ((10-1)*8 + 10*(8-1))
	if g.NumEdges() != want {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// All weights positive; symmetric pairs share weights.
	for i := 0; i < g.NumEdges(); i += 2 {
		a, b := g.Edge(i), g.Edge(i+1)
		if a.Weight <= 0 {
			t.Fatal("non-positive weight")
		}
		if a.Src != b.Dst || a.Dst != b.Src || a.Weight != b.Weight {
			t.Fatal("asymmetric pair")
		}
	}
	// Road graphs are low-degree.
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if d := g.InDegree(v) + g.OutDegree(v); d > 10 {
			t.Errorf("road vertex %d has degree %d, want at most 10", v, d)
		}
	}
}

func TestRoadShortcuts(t *testing.T) {
	base, _ := Road(RoadConfig{Width: 6, Height: 6, Seed: 1})
	withCuts, _ := Road(RoadConfig{Width: 6, Height: 6, ShortcutFrac: 0.2, Seed: 1})
	if withCuts.NumEdges() <= base.NumEdges() {
		t.Error("shortcuts did not add edges")
	}
}

func TestRoadValidation(t *testing.T) {
	if _, err := Road(RoadConfig{Width: 1, Height: 5}); err == nil {
		t.Error("expected error for 1-wide grid")
	}
}

func TestBipartite(t *testing.T) {
	g, err := Bipartite(BipartiteConfig{NumUsers: 100, NumItems: 20, NumRatings: 500, ItemAlpha: 1.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 120 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 1000 {
		t.Errorf("NumEdges = %d, want 1000 (bidirectional)", g.NumEdges())
	}
	for i := range g.NumEdges() {
		e := g.Edge(i)
		uSide := e.Src < 100
		iSide := e.Dst >= 100
		if uSide != iSide && (e.Src >= 100) == (e.Dst >= 100) {
			t.Fatal("edge within one side of the bipartition")
		}
		if e.Weight < 1 || e.Weight > 5 {
			t.Fatalf("rating %v outside [1,5]", e.Weight)
		}
	}
}

func TestBipartiteValidation(t *testing.T) {
	if _, err := Bipartite(BipartiteConfig{NumUsers: 0, NumItems: 5, NumRatings: 5, ItemAlpha: 1}); err == nil {
		t.Error("expected error for zero users")
	}
}

func TestCommunity(t *testing.T) {
	g, err := Community(CommunityConfig{NumVertices: 1000, NumCommunities: 20, IntraDegree: 6, InterDegree: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	// Symmetric by construction.
	if g.NumEdges()%2 != 0 {
		t.Error("edge count should be even (bidirectional)")
	}
}

func TestCommunityValidation(t *testing.T) {
	if _, err := Community(CommunityConfig{NumVertices: 5, NumCommunities: 10, IntraDegree: 1}); err == nil {
		t.Error("expected error for more communities than vertices")
	}
}
