package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// selfishPR is fakePR with the §4.4 optimization allowed (Apply ignores the
// previous value, so selfish recomputation is sound).
type selfishPR struct{ fakePR }

func (selfishPR) CanRecomputeSelfish() bool { return true }

func serveTestCluster(t *testing.T, cfg Config, g *graph.Graph) *Cluster[float64, float64] {
	t.Helper()
	cl, err := NewCluster[float64, float64](cfg, g, selfishPR{})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func serveFTConfig(mode Mode, numNodes, iters, k int, recovery RecoveryKind) Config {
	cfg := DefaultConfig(mode, numNodes)
	cfg.MaxIter = iters
	cfg.FT.K = k
	cfg.Recovery = recovery
	cfg.MaxRebirths = 8
	cfg.Serve = ServeConfig{Enabled: true}
	return cfg
}

// TestServeRoutesAwaySuspected: a merely *suspected* master (advisory
// first-stage detection) is already avoided — the answer comes from a
// replica host, without waiting for the failure to be confirmed.
func TestServeRoutesAwaySuspected(t *testing.T) {
	g := datasets.Tiny(300, 1800, 41)
	cl := serveTestCluster(t, serveFTConfig(EdgeCutMode, 5, 4, 1, RecoverRebirth), g)

	// Pick a non-selfish vertex (it has computation replicas to fall back to).
	var v graph.VertexID
	for v = 0; int(v) < g.NumVertices(); v++ {
		if !g.IsSelfish(v) {
			break
		}
	}
	mn := int(cl.masterLoc[v])
	before, err := cl.Query(Query{Kind: QueryValue, Vertex: v})
	if err != nil {
		t.Fatal(err)
	}
	if before.Node != mn || before.FromReplica {
		t.Fatalf("healthy master should serve: node=%d fromReplica=%v (master %d)", before.Node, before.FromReplica, mn)
	}

	cl.coord.Suspect(mn)
	after, err := cl.Query(Query{Kind: QueryValue, Vertex: v})
	if err != nil {
		t.Fatal(err)
	}
	if after.Node == mn || !after.FromReplica {
		t.Fatalf("suspected master still serving: node=%d fromReplica=%v", after.Node, after.FromReplica)
	}
	if after.Value != before.Value || after.Epoch != before.Epoch {
		t.Fatalf("replica answer diverged: %v@%d vs %v@%d", after.Value, after.Epoch, before.Value, before.Epoch)
	}
}

// TestServeSelfishUnavailable: when the §4.4 optimization is on, a selfish
// vertex's FT-only replicas are never synced, so with its master down the
// honest answer is ErrVertexUnavailable — not a stale fabrication.
func TestServeSelfishUnavailable(t *testing.T) {
	g := datasets.Tiny(300, 1200, 41)
	var selfish graph.VertexID
	found := false
	for v := 0; v < g.NumVertices(); v++ {
		if g.IsSelfish(graph.VertexID(v)) {
			selfish, found = graph.VertexID(v), true
			break
		}
	}
	if !found {
		t.Skip("dataset has no selfish vertex")
	}
	cfg := serveFTConfig(EdgeCutMode, 5, 4, 1, RecoverRebirth)
	cl := serveTestCluster(t, cfg, g)
	if !cl.selfishOptOn {
		t.Fatal("selfish optimization should be on")
	}

	mn := int(cl.masterLoc[selfish])
	cl.coord.Suspect(mn)
	if _, err := cl.Query(Query{Kind: QueryValue, Vertex: selfish}); !errors.Is(err, ErrVertexUnavailable) {
		t.Fatalf("selfish vertex with suspected master: %v", err)
	}

	// With the optimization off, FT-only replicas are synced and may serve.
	cfg2 := cfg
	cfg2.FT.SelfishOpt = false
	cl2 := serveTestCluster(t, cfg2, g)
	mn2 := int(cl2.masterLoc[selfish])
	cl2.coord.Suspect(mn2)
	ans, err := cl2.Query(Query{Kind: QueryValue, Vertex: selfish})
	if err != nil {
		t.Fatalf("without selfish opt the FT replica should serve: %v", err)
	}
	if !ans.FromReplica || ans.Node == mn2 {
		t.Fatalf("expected replica answer, got node=%d fromReplica=%v", ans.Node, ans.FromReplica)
	}
}

// TestServeMidRebirthRouting: while a rebirth pass is rebuilding the failed
// node, queries for vertices mastered there are answered by surviving
// replica hosts from the last committed epoch — never by the dead node,
// never torn.
func TestServeMidRebirthRouting(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(400, 2400, 43)
		cfg := serveFTConfig(mode, 6, 8, 2, RecoverRebirth)
		cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}}}
		cl := serveTestCluster(t, cfg, g)

		checked := 0
		var hookErr error
		cl.SetRecoveryHook(func(phase string) {
			if hookErr != nil || !strings.HasPrefix(phase, "rebirth:") {
				return
			}
			for v := 0; v < g.NumVertices() && checked < 200; v++ {
				if int(cl.masterLoc[v]) != 1 {
					continue
				}
				ans, err := cl.Query(Query{Kind: QueryValue, Vertex: graph.VertexID(v)})
				if err != nil {
					if errors.Is(err, ErrVertexUnavailable) && cl.g.IsSelfish(graph.VertexID(v)) {
						continue // honest §4.4 refusal
					}
					hookErr = err
					return
				}
				// The dead node must not serve while it is down; once the
				// rebirth joins it back, it is alive and legitimate again.
				if ans.Node == 1 && !cl.coord.Alive(1) {
					hookErr = errors.New("dead node served a query")
					return
				}
				if ans.Staleness() > 1 {
					hookErr = errors.New("mid-rebirth staleness above one epoch")
					return
				}
				checked++
			}
		})
		if _, err := cl.Run(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if hookErr != nil {
			t.Fatalf("%v: %v", mode, hookErr)
		}
		if checked == 0 {
			t.Fatalf("%v: no mid-rebirth queries exercised", mode)
		}
	}
}

// TestServePartitionFencedRouting: a partitioned node is suspected,
// confirmed failed, and its masters migrate to survivors. Queries issued
// while the fenced node is still confirmed-dead (mid-promotion, before the
// routing view refreshes) must divert to replicas; after recovery and heal,
// the moved masters serve directly and the fenced node never reappears in
// answers.
func TestServePartitionFencedRouting(t *testing.T) {
	g := datasets.Tiny(400, 2400, 47)
	cfg := serveFTConfig(EdgeCutMode, 6, 8, 2, RecoverMigration)
	cfg.Chaos = []ChaosEvent{{Kind: ChaosPartition, Iteration: 3, Nodes: []int{2}, HealIter: 6}}
	cfg.ChaosSeed = 7
	cl := serveTestCluster(t, cfg, g)

	var wasMastered []graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if int(cl.masterLoc[v]) == 2 {
			wasMastered = append(wasMastered, graph.VertexID(v))
		}
	}
	if len(wasMastered) == 0 {
		t.Fatal("no vertices mastered on the partitioned node")
	}

	checked := 0
	var hookErr error
	cl.SetRecoveryHook(func(phase string) {
		if hookErr != nil || phase != "migration:promote" || cl.coord.Alive(2) {
			return
		}
		for _, v := range wasMastered {
			if checked >= 200 {
				break
			}
			ans, err := cl.Query(Query{Kind: QueryValue, Vertex: v})
			if err != nil {
				if errors.Is(err, ErrVertexUnavailable) && cl.g.IsSelfish(v) {
					continue
				}
				hookErr = err
				return
			}
			if ans.Node == 2 {
				hookErr = errors.New("fenced node served a query")
				return
			}
			if !ans.FromReplica {
				hookErr = errors.New("mid-promotion answer not marked FromReplica")
				return
			}
			checked++
		}
	})
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if checked == 0 {
		t.Fatal("no queries exercised during the partition window")
	}
	// After migration the moved masters serve directly again — and never
	// from the permanently-dead partitioned node.
	for _, v := range wasMastered[:min(20, len(wasMastered))] {
		ans, err := cl.Query(Query{Kind: QueryValue, Vertex: v})
		if err != nil {
			if errors.Is(err, ErrVertexUnavailable) && cl.g.IsSelfish(v) {
				continue
			}
			t.Fatal(err)
		}
		if ans.Node == 2 {
			t.Fatal("dead node still named as serving node after migration")
		}
		if ans.FromReplica {
			t.Fatalf("vertex %d still served by fallback after the routing refresh", v)
		}
	}
}

// TestServeStalenessBound: a snapshot is published after every commit, so
// staleness is bounded by one epoch: a recovery window lags exactly one,
// surfaced on the answer, and the converged answer is fresh.
func TestServeStalenessBound(t *testing.T) {
	g := datasets.Tiny(300, 1800, 49)
	cfg := serveFTConfig(EdgeCutMode, 5, 8, 1, RecoverRebirth)
	cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 4, Phase: FailBeforeBarrier, Nodes: []int{1}}}
	cl := serveTestCluster(t, cfg, g)

	served := 0
	var hookErr error
	cl.SetRecoveryHook(func(phase string) {
		if hookErr != nil {
			return
		}
		// Frontier is 5 (executing superstep 4), last publish was epoch 4.
		ans, err := cl.Query(Query{Kind: QueryValue, Vertex: 0})
		if err != nil {
			hookErr = err
			return
		}
		if ans.Epoch != 4 || ans.Staleness() != 1 {
			hookErr = fmt.Errorf("epoch %d staleness %d during recovery, want 4 and 1",
				ans.Epoch, ans.Staleness())
			return
		}
		served++
	})
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	if served == 0 {
		t.Fatal("no mid-recovery query was exercised")
	}
	if res.Serve.MaxStaleness != 1 {
		t.Fatalf("serve stats: want max staleness 1, got %+v", res.Serve)
	}
	ans, err := cl.Query(Query{Kind: QueryValue, Vertex: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epoch != cfg.MaxIter || ans.Staleness() != 0 {
		t.Fatalf("converged answer epoch=%d staleness=%d", ans.Epoch, ans.Staleness())
	}
}

// TestServePublishCadence: every committed superstep publishes exactly one
// epoch, in order, with no run-end publish needed to close a gap. A
// checkpoint rollback re-commits supersteps whose epochs are already
// published; those neither publish twice nor leave a hole.
func TestServePublishCadence(t *testing.T) {
	g := datasets.Tiny(300, 1800, 49)
	const iters = 8
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"fault-free", func() Config {
			return serveFTConfig(EdgeCutMode, 5, iters, 1, RecoverRebirth)
		}},
		{"checkpoint-replay", func() Config {
			cfg := serveFTConfig(EdgeCutMode, 5, iters, 1, RecoverCheckpoint)
			cfg.Checkpoint.Interval = 3
			cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 5, Phase: FailBeforeBarrier, Nodes: []int{1}}}
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Serve.KeepHistory = true
			cl := serveTestCluster(t, cfg, g)
			res, err := cl.Run()
			if err != nil {
				t.Fatal(err)
			}
			executed := 0
			for _, ev := range res.Trace {
				if ev.Kind == TraceIteration {
					executed++
				}
			}
			if replays := len(cfg.Chaos) > 0; replays != (executed > iters) {
				t.Fatalf("%d supersteps executed for %d epochs; replay expected: %v", executed, iters, replays)
			}
			got := cl.PublishedEpochs()
			if len(got) != iters+1 {
				t.Fatalf("published epochs %v, want 0..%d", got, iters)
			}
			for i, e := range got {
				if e != i {
					t.Fatalf("published epochs %v, want 0..%d (each once, in order)", got, iters)
				}
			}
		})
	}
}

// TestServeRouteAfterRecovery: a recovery rebuilds the serving route only
// when it moved masters. Rebirth, checkpoint and logged recovery rebuild
// every failed slot where it was, so the route kept from load must equal a
// fresh rebuild afterwards; Migration, and a Rebirth that fell back to it,
// publish a new one, which must equal a fresh rebuild too.
func TestServeRouteAfterRecovery(t *testing.T) {
	g := datasets.Tiny(300, 1800, 41)
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		for _, k := range []int{1, 2} {
			for _, tc := range []struct {
				name     string
				kind     RecoveryKind
				fallback bool
			}{
				{"rebirth", RecoverRebirth, false},
				{"checkpoint", RecoverCheckpoint, false},
				{"logged", RecoverLogged, false},
				{"migration", RecoverMigration, true},
				{"rebirth-fallback", RecoverRebirth, true},
			} {
				t.Run(fmt.Sprintf("%v/k=%d/%s", mode, k, tc.name), func(t *testing.T) {
					cfg := serveFTConfig(mode, 5, 6, k, tc.kind)
					cfg.Checkpoint.Interval = 2
					cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}}}
					if tc.name == "rebirth-fallback" {
						cfg.MaxRebirths, cfg.RebirthFallback = 0, true
					}
					cl := serveTestCluster(t, cfg, g)
					loaded := cl.serve.route.Load()
					if _, err := cl.Run(); err != nil {
						t.Fatal(err)
					}
					if len(cl.recoveries) != 1 {
						t.Fatalf("%d recoveries, want 1", len(cl.recoveries))
					}
					kept := cl.serve.route.Load()
					if rebuilt := kept != loaded; rebuilt != tc.fallback {
						t.Errorf("route rebuilt: %v, want %v", rebuilt, tc.fallback)
					}
					cl.serveRefreshRoute()
					if fresh := cl.serve.route.Load(); !reflect.DeepEqual(kept, fresh) {
						t.Error("the route kept after recovery differs from a fresh rebuild")
					}
				})
			}
		}
	}
}

// TestServePinnedSnapshotNotRefilled: a publish never refills a snapshot a
// reader has pinned, and refills the oldest unpinned retired one.
func TestServePinnedSnapshotNotRefilled(t *testing.T) {
	g := datasets.Tiny(300, 1800, 41)
	cl := serveTestCluster(t, serveFTConfig(EdgeCutMode, 5, 4, 1, RecoverRebirth), g)
	s := cl.serve
	publish := func() *serveSnapshot {
		cl.iter++
		cl.servePublish()
		return s.snap.Load()
	}
	pinned := s.pin()
	want := append([]float64(nil), pinned.vals...)
	for _, nd := range cl.aliveNodes() {
		for i := range nd.hot {
			nd.hot[i].value += 1 // every later epoch publishes other values
		}
	}
	first := publish()
	second := publish()
	if first == pinned || second == pinned {
		t.Fatal("a publish refilled the pinned snapshot")
	}
	if pinned.epoch != 0 || !reflect.DeepEqual(pinned.vals, want) {
		t.Fatalf("pinned snapshot changed: epoch %d", pinned.epoch)
	}
	pinned.pins.Add(-1)
	if got := publish(); got != pinned {
		t.Error("the released snapshot was not refilled first")
	}
	if got := publish(); got != first {
		t.Error("the next publish did not refill the oldest retired snapshot")
	}
}
