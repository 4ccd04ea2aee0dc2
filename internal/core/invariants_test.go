package core

import (
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// fakePR is a minimal always-active program for white-box tests.
type fakePR struct{}

func (fakePR) Name() string              { return "fake" }
func (fakePR) AlwaysActive() bool        { return true }
func (fakePR) CanRecomputeSelfish() bool { return false }
func (fakePR) Init(graph.VertexID, VertexInfo) (float64, bool) {
	return 1, true
}
func (fakePR) Gather(e graph.Edge, src float64, _ VertexInfo) float64 { return src }
func (fakePR) Merge(a, b float64) float64                             { return a + b }
func (fakePR) Apply(_ graph.VertexID, _ VertexInfo, _ float64, acc float64, _ bool, _ int) (float64, bool) {
	return acc + 1, true
}
func (fakePR) ValueCodec() Codec[float64] { return Float64Codec{} }
func (fakePR) AccCodec() Codec[float64]   { return Float64Codec{} }

// TestRebirthPreservesLayout is the §5.1.2 claim: after Rebirth, every
// vertex sits at exactly the array position it occupied on the crashed
// node, so positional recovery messages need no coordination.
func TestRebirthPreservesLayout(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(200, 1000, 99)
		cfg := DefaultConfig(mode, 3)
		cfg.MaxIter = 4
		cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 2, Phase: FailBeforeBarrier, Nodes: []int{1}}}
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		before := map[graph.VertexID]int32{}
		var masters, mirrors int
		for i := range cl.nodes[1].hot {
			e := &cl.nodes[1].hot[i]
			before[e.id] = int32(i)
			if e.isMaster() {
				masters++
			}
			if e.isMirror() {
				mirrors++
			}
		}
		if _, err := cl.Run(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		after := cl.nodes[1]
		if len(after.hot) != len(before) || len(after.topo) != len(before) || len(after.meta) != len(before) {
			t.Fatalf("%v: table lengths changed: %d -> %d/%d/%d", mode, len(before), len(after.hot), len(after.topo), len(after.meta))
		}
		var mastersAfter, mirrorsAfter int
		for i := range after.hot {
			e := &after.hot[i]
			if before[e.id] != int32(i) {
				t.Fatalf("%v: vertex %d moved from %d to %d", mode, e.id, before[e.id], i)
			}
			if e.isMaster() {
				mastersAfter++
			}
			if e.isMirror() {
				mirrorsAfter++
			}
		}
		if masters != mastersAfter {
			t.Errorf("%v: master count changed %d -> %d", mode, masters, mastersAfter)
		}
		if mirrors != mirrorsAfter {
			t.Errorf("%v: mirror count changed %d -> %d", mode, mirrors, mirrorsAfter)
		}
	}
}

// TestLoadInvariants checks the FT construction rules of §4: at least K
// replicas per vertex, FT replicas are mirrors, and masters know their
// replicas' exact positions.
func TestLoadInvariants(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		for _, k := range []int{1, 2, 3} {
			g := datasets.Tiny(300, 1500, 123)
			cfg := DefaultConfig(mode, 6)
			cfg.FT.K = k
			cfg.MaxIter = 1
			cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
			if err != nil {
				t.Fatal(err)
			}
			for _, nd := range cl.nodes {
				for i := range nd.hot {
					e, rt := &nd.hot[i], &nd.meta[i].replicas
					if !e.isMaster() {
						continue
					}
					if len(rt.nodes) < k {
						t.Fatalf("%v K=%d: vertex %d has %d replicas", mode, k, e.id, len(rt.nodes))
					}
					if len(rt.mirrorOf) != k {
						t.Fatalf("%v K=%d: vertex %d has %d mirrors", mode, k, e.id, len(rt.mirrorOf))
					}
					seen := map[int16]bool{int16(nd.id): true}
					for ri, rn := range rt.nodes {
						if seen[rn] {
							t.Fatalf("%v: vertex %d replicated twice on node %d", mode, e.id, rn)
						}
						seen[rn] = true
						re := &cl.nodes[rn].hot[rt.pos[ri]]
						if re.id != e.id {
							t.Fatalf("%v: vertex %d replicaPos points at vertex %d", mode, e.id, re.id)
						}
						if re.isMaster() {
							t.Fatalf("%v: replica of %d marked master", mode, e.id)
						}
						if re.masterNode != int16(nd.id) || re.masterPos != int32(i) {
							t.Fatalf("%v: replica of %d has wrong master pointer", mode, e.id)
						}
						if rt.ftOnly[ri] != re.isFTOnly() {
							t.Fatalf("%v: FT flag mismatch for vertex %d", mode, e.id)
						}
					}
					// Every FT-only replica must be a mirror (§4.2).
					for ri := range rt.nodes {
						if !rt.ftOnly[ri] {
							continue
						}
						isMirror := false
						for _, idx := range rt.mirrorOf {
							if int(idx) == ri {
								isMirror = true
							}
						}
						if !isMirror {
							t.Fatalf("%v: FT replica of vertex %d is not a mirror", mode, e.id)
						}
					}
					for rank, idx := range rt.mirrorOf {
						rnd := cl.nodes[rt.nodes[idx]]
						re, rm := &rnd.hot[rt.pos[idx]], &rnd.meta[rt.pos[idx]]
						if !re.isMirror() || rm.mirrorRank != int16(rank) {
							t.Fatalf("%v: mirror rank mismatch for vertex %d", mode, e.id)
						}
						if len(rm.mTable.nodes) != len(rt.nodes) {
							t.Fatalf("%v: mirror of %d has stale table", mode, e.id)
						}
					}
				}
			}
		}
	}
}

// TestMirrorBalance checks the greedy mirror assignment spreads mirrors
// (§4.2): no node should hold a wildly disproportionate share.
func TestMirrorBalance(t *testing.T) {
	g := datasets.Tiny(2000, 10000, 321)
	cfg := DefaultConfig(EdgeCutMode, 8)
	cfg.MaxIter = 1
	cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	total := 0
	for _, nd := range cl.nodes {
		for i := range nd.hot {
			if nd.hot[i].isMirror() {
				counts[nd.id]++
				total++
			}
		}
	}
	mean := total / 8
	for n, cnt := range counts {
		if cnt > 2*mean || cnt < mean/2 {
			t.Errorf("node %d holds %d mirrors, mean %d: unbalanced", n, cnt, mean)
		}
	}
}
