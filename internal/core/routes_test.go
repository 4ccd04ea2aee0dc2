package core

import (
	"testing"

	"imitator/internal/datasets"
)

// naiveRoute derives a node's sync-routing table directly from the entry
// replica tables — the per-entry walk the superstep loops performed before
// the flat CSR form existed.
func naiveRoute[V, A any](nd *node[V, A]) syncRoute {
	var rt syncRoute
	for i := range nd.meta {
		rt.start = append(rt.start, int32(len(rt.node)))
		t := &nd.meta[i].replicas
		for ri, rn := range t.nodes {
			rt.node = append(rt.node, rn)
			rt.pos = append(rt.pos, t.pos[ri])
			rt.ftOnly = append(rt.ftOnly, t.ftOnly[ri])
		}
	}
	rt.start = append(rt.start, int32(len(rt.node)))
	return rt
}

func routesEqual(a, b *syncRoute) bool {
	if len(a.start) != len(b.start) || len(a.node) != len(b.node) {
		return false
	}
	for i := range a.start {
		if a.start[i] != b.start[i] {
			return false
		}
	}
	for i := range a.node {
		if a.node[i] != b.node[i] || a.pos[i] != b.pos[i] || a.ftOnly[i] != b.ftOnly[i] {
			return false
		}
	}
	return true
}

// TestSyncRoutesRebuiltAfterRecovery: Rebirth and Migration reshape replica
// tables (and append entries) on the nodes they touch. Every precomputed
// routing table in use after the run must match the from-scratch per-entry
// derivation — i.e. recovery must have invalidated stale tables and the
// subsequent supersteps must have rebuilt them.
func TestSyncRoutesRebuiltAfterRecovery(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
		rec  RecoveryKind
	}{
		{"rebirth-edgecut", EdgeCutMode, RecoverRebirth},
		{"rebirth-vertexcut", VertexCutMode, RecoverRebirth},
		{"migration-edgecut", EdgeCutMode, RecoverMigration},
		{"migration-vertexcut", VertexCutMode, RecoverMigration},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := datasets.Tiny(300, 1800, 909)
			cfg := DefaultConfig(tc.mode, 4)
			cfg.Recovery = tc.rec
			cfg.MaxIter = 8
			cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}}}
			cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if len(cl.recoveries) == 0 {
				t.Fatal("no recovery happened; the test exercised nothing")
			}
			for _, nd := range cl.aliveNodes() {
				if nd.routeDirty {
					t.Errorf("node %d: routing table still dirty after post-recovery supersteps", nd.id)
					continue
				}
				want := naiveRoute(nd)
				if !routesEqual(&nd.route, &want) {
					t.Errorf("node %d: precomputed routing table diverged from per-entry derivation", nd.id)
				}
			}
		})
	}
}
