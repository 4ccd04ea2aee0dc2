package core

import (
	"fmt"
	"slices"
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/graph"
	"imitator/internal/metrics"
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

// fakeEvenScatter is an always-active program whose even vertices scatter
// and odd ones do not, so countNotices must take the odd slots' route
// entries off each destination's total. PageRank and ALS scatter from every
// slot and never reach that path.
type fakeEvenScatter struct{ fakePR }

func (fakeEvenScatter) Name() string { return "fake-even-scatter" }
func (fakeEvenScatter) Apply(id graph.VertexID, _ VertexInfo, _ float64, acc float64, _ bool, _ int) (float64, bool) {
	return acc + 1, id%2 == 0
}

// TestCountedNoticesMatchPerEdgeWalk runs an always-active program that
// scatters from half its slots under vertex-cut, K = 1 and 2, through one
// Migration. At the end of every superstep's sync receive, where the R4
// frames are final, each node's notice buffer to each destination must be
// as long as the per-edge walk over the scattering slots stages, all zero,
// and the node's activation metrics since the previous superstep must equal
// the walk's.
func TestCountedNoticesMatchPerEdgeWalk(t *testing.T) {
	g := datasets.Tiny(300, 1800, 909)
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cfg := DefaultConfig(VertexCutMode, 4)
			cfg.Recovery = RecoverMigration
			cfg.FT.K = k
			cfg.MaxIter = 6
			cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}}}
			cl, err := NewCluster[float64, float64](cfg, g, fakeEvenScatter{})
			if err != nil {
				t.Fatal(err)
			}
			// Each slot is written by its node's phase goroutine only.
			last := make([]metrics.Node, cfg.NumNodes)
			checked := make([]int, cfg.NumNodes)
			subtracted := make([]bool, cfg.NumNodes)
			recv := cl.fns.syncRecv
			cl.fns.syncRecv = func(nd *node[float64, float64]) {
				recv(nd)
				wantNotice := make([][]byte, cfg.NumNodes)
				var wantMet metrics.Node
				for i := range nd.hot {
					if nd.hot[i].pendingScatter {
						refScatterMark(cl, nd, nil, wantNotice, &wantMet, int32(i))
					} else if nd.scatter.start[i+1] > nd.scatter.start[i] {
						subtracted[nd.id] = true
					}
				}
				for dst, want := range wantNotice {
					got := nd.noticeBuf[dst]
					if nonzero := slices.ContainsFunc(got, func(b byte) bool { return b != 0 }); len(got) != len(want) || nonzero {
						t.Errorf("superstep %d: node %d -> %d: R4 frame of %d bytes (nonzero: %v), per-edge walk %d",
							cl.curIter, nd.id, dst, len(got), nonzero, len(want))
					}
				}
				msgs := nd.met.ActivationMsgs - last[nd.id].ActivationMsgs
				size := nd.met.ActivationBytes - last[nd.id].ActivationBytes
				if msgs != wantMet.ActivationMsgs || size != wantMet.ActivationBytes {
					t.Errorf("superstep %d: node %d: activation metrics %d msgs / %d bytes, per-edge walk %d / %d",
						cl.curIter, nd.id, msgs, size, wantMet.ActivationMsgs, wantMet.ActivationBytes)
				}
				last[nd.id] = *nd.met
				checked[nd.id]++
			}
			if _, err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if len(cl.recoveries) != 1 {
				t.Fatalf("%d recoveries, want one Migration", len(cl.recoveries))
			}
			for id, n := range checked {
				if id != 1 && (n <= cfg.MaxIter || !subtracted[id]) {
					t.Errorf("node %d: %d supersteps checked, non-scattering slot with route entries seen: %v",
						id, n, subtracted[id])
				}
			}
		})
	}
}
