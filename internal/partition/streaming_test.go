package partition

import (
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/gen"
)

func TestLDGBeatsHashOnCommunities(t *testing.T) {
	g, err := gen.Community(gen.CommunityConfig{
		NumVertices: 3000, NumCommunities: 30, IntraDegree: 8, InterDegree: 0.3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := HashEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ldg, err := LDGEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ldg.Stats(g).ReplicationFactor >= hash.Stats(g).ReplicationFactor {
		t.Errorf("LDG RF %.2f not below hash RF %.2f",
			ldg.Stats(g).ReplicationFactor, hash.Stats(g).ReplicationFactor)
	}
}

func TestLDGBalance(t *testing.T) {
	g := datasets.Tiny(2000, 12000, 71)
	ec, err := LDGEdgeCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, 8)
	for _, o := range ec.Owner {
		if o < 0 || o >= 8 {
			t.Fatalf("owner %d out of range", o)
		}
		sizes[o]++
	}
	limit := int(ldgNu*float64(g.NumVertices())/8) + 1
	for i, s := range sizes {
		if s > limit {
			t.Errorf("node %d holds %d masters, above soft capacity %d", i, s, limit)
		}
	}
}

func TestLDGValidation(t *testing.T) {
	g := datasets.Tiny(100, 400, 72)
	if _, err := LDGEdgeCut(g, 0); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestObliviousCoversEdgesAndBeatsRandom(t *testing.T) {
	g := datasets.Tiny(4000, 40000, 73)
	obl, err := ObliviousVertexCut(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obl.EdgeOwner {
		if o < 0 || o >= 16 {
			t.Fatalf("edge owner %d out of range", o)
		}
	}
	random, err := RandomVertexCut(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if obl.Stats(g).ReplicationFactor >= random.Stats(g).ReplicationFactor {
		t.Errorf("oblivious RF %.2f not below random RF %.2f",
			obl.Stats(g).ReplicationFactor, random.Stats(g).ReplicationFactor)
	}
}

func TestObliviousLoadBalance(t *testing.T) {
	g := datasets.Tiny(2000, 20000, 74)
	vc, err := ObliviousVertexCut(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := vc.Stats(g)
	if s.MaxEdgesNode > 3*s.MinEdgesNode+8 {
		t.Errorf("edge load imbalance: max %d vs min %d", s.MaxEdgesNode, s.MinEdgesNode)
	}
}
