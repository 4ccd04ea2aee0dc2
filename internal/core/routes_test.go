package core

import (
	"fmt"
	"testing"

	"imitator/internal/datasets"
)

// TestRoutesAfterRecovery: Rebirth and Migration reshape replica tables,
// master locations and out-lists (and append entries) on the nodes they
// touch; checkpoint and logged recovery rebuild the crashed node. After load
// and after the run with its crash, for an always-active program and one
// with inactive vertices, at one and four workers a node: the replica tables
// the sync stages walk must still name exactly the replica slots that point
// back at their masters (checkVertexTables), and the vertex-cut scatter
// route must have been rebuilt to match the per-edge reference walk
// (scatter_ref_test.go). Edge-cut must never build or invalidate a route.
func TestRoutesAfterRecovery(t *testing.T) {
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
					checkVertexTables(t, fresh, when+" after load")
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
							t.Errorf("%s: node %d: scatter route still dirty after post-recovery supersteps", when, nd.id)
						}
						if tc.mode == EdgeCutMode && nd.scatter.start != nil {
							t.Errorf("%s: node %d: edge-cut built a scatter route", when, nd.id)
						}
					}
					checkVertexTables(t, cl, when+" after recovery")
					checkScatterRoutes(t, cl, when+" after recovery")
				}
			}
		})
	}
}
