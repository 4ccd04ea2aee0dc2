package core

import (
	"fmt"
	"testing"

	"imitator/internal/datasets"
)

// naiveRoute derives a node's sync-routing table directly from the master
// slots' replica tables — the per-entry walk the superstep loops performed
// before the flat CSR form existed.
func naiveRoute[V, A any](nd *node[V, A]) syncRoute {
	var rt syncRoute
	for i := range nd.hot {
		rt.start = append(rt.start, int32(len(rt.node)))
		if !nd.hot[i].isMaster() {
			continue
		}
		t := nd.replicas(int32(i))
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
// tables, master locations and out-lists (and append entries) on the nodes
// they touch; checkpoint and logged recovery rebuild the crashed node. Every
// precomputed routing table in use after the run must match the from-scratch
// derivation — i.e. recovery must have invalidated stale tables and the
// subsequent supersteps must have rebuilt them: the sync route against the
// per-entry walk of the replica tables, the scatter route against the
// per-edge reference walk (scatter_ref_test.go), after load and after the
// crash, for an always-active program and one with inactive vertices, at one
// and four workers a node.
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
		{"checkpoint-edgecut", EdgeCutMode, RecoverCheckpoint},
		{"checkpoint-vertexcut", VertexCutMode, RecoverCheckpoint},
		{"logged-edgecut", EdgeCutMode, RecoverLogged},
		{"logged-vertexcut", VertexCutMode, RecoverLogged},
	}
	g := datasets.Tiny(300, 1800, 909)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, prog := range []Program[float64, float64]{fakePR{}, fakeSSSP{}} {
				for _, workers := range []int{1, 4} {
					cfg := DefaultConfig(tc.mode, 4)
					cfg.Recovery = tc.rec
					cfg.MaxIter = 8
					cfg.WorkersPerNode = workers
					cfg.Checkpoint = CheckpointConfig{Interval: 2}
					when := fmt.Sprintf("%s workers=%d", prog.Name(), workers)
					fresh, err := NewCluster(cfg, g, prog)
					if err != nil {
						t.Fatal(err)
					}
					checkScatterRoutes(t, fresh, when+" after load")

					cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}}}
					cl, err := NewCluster(cfg, g, prog)
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
							t.Errorf("%s: node %d: routing table still dirty after post-recovery supersteps", when, nd.id)
							continue
						}
						want := naiveRoute(nd)
						if !routesEqual(&nd.route, &want) {
							t.Errorf("%s: node %d: precomputed routing table diverged from per-entry derivation", when, nd.id)
						}
					}
					checkScatterRoutes(t, cl, when+" after recovery")
				}
			}
		})
	}
}
