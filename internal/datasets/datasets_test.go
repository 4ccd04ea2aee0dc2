package datasets

import (
	"math"
	"testing"
)

func TestNamesStable(t *testing.T) {
	a, b := Names(), Names()
	if len(a) != 13 {
		t.Fatalf("expected 13 datasets (8 named + 5 alpha), got %d: %v", len(a), a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Names() not deterministic")
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestLoadMemoizes(t *testing.T) {
	a, err := Load("dblp")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Load("dblp")
	if a != b {
		t.Error("Load did not memoize")
	}
}

func TestSmallDatasetShapes(t *testing.T) {
	cases := []struct {
		name           string
		wantV          int
		minRatio       float64 // |E|/|V| lower bound
		maxRatio       float64
		minSelfishFrac float64
		maxSelfishFrac float64
	}{
		{"gweb", 16000, 5, 7, 0.10, 0.35},
		{"dblp", 16000, 2.5, 4.5, 0, 0.05},
		{"roadca", 32000, 2.5, 4.2, 0, 0.01},
		{"syn-gl", 8000, 20, 28, 0, 0.01},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := Load(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != c.wantV {
				t.Errorf("|V| = %d, want %d", g.NumVertices(), c.wantV)
			}
			ratio := float64(g.NumEdges()) / float64(g.NumVertices())
			if ratio < c.minRatio || ratio > c.maxRatio {
				t.Errorf("|E|/|V| = %.2f outside [%.1f, %.1f]", ratio, c.minRatio, c.maxRatio)
			}
			frac := float64(g.NumSelfish()) / float64(g.NumVertices())
			if frac < c.minSelfishFrac || frac > c.maxSelfishFrac {
				t.Errorf("selfish fraction %.3f outside [%.2f, %.2f]", frac, c.minSelfishFrac, c.maxSelfishFrac)
			}
		})
	}
}

func TestAlphaSweepEdgeCountsGrow(t *testing.T) {
	// Table 4: |E| grows as alpha falls. Checked on the two cheapest.
	g22, err := Load("alpha-2.2")
	if err != nil {
		t.Fatal(err)
	}
	g21, err := Load("alpha-2.1")
	if err != nil {
		t.Fatal(err)
	}
	if g22.NumVertices() != 32000 || g21.NumVertices() != 32000 {
		t.Error("alpha graphs must share |V| = 32000")
	}
	if g21.NumEdges() <= g22.NumEdges() {
		t.Errorf("alpha 2.1 edges (%d) should exceed alpha 2.2's (%d)",
			g21.NumEdges(), g22.NumEdges())
	}
}

func TestRoadWeightsLogNormal(t *testing.T) {
	g, err := Load("roadca")
	if err != nil {
		t.Fatal(err)
	}
	var sumLog float64
	for i := range g.NumEdges() {
		e := g.Edge(i)
		if e.Weight <= 0 {
			t.Fatal("non-positive road weight")
		}
		sumLog += math.Log(e.Weight)
	}
	mean := sumLog / float64(g.NumEdges())
	if math.Abs(mean-0.4) > 0.15 {
		t.Errorf("log-weight mean %.3f, want ~0.4 (paper mu)", mean)
	}
}

func TestTiny(t *testing.T) {
	g := Tiny(100, 400, 1)
	if g.NumVertices() != 100 || g.NumEdges() != 400 {
		t.Errorf("Tiny produced %d/%d", g.NumVertices(), g.NumEdges())
	}
}
