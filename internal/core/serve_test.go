package core_test

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
	"imitator/internal/rng"
)

// serveTruth runs the same workload fault-free with history retention and
// returns the published per-epoch value trajectory: the ground truth every
// epoch-stamped answer must match.
func serveTruth(t *testing.T, mode core.Mode, g *graph.Graph, iters int) map[int][]float64 {
	t.Helper()
	cfg := ftConfig(mode, 6, iters, 2, core.RecoverRebirth)
	cfg.Serve = core.ServeConfig{Enabled: true, KeepHistory: true}
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	truth := map[int][]float64{}
	for _, e := range cl.PublishedEpochs() {
		truth[e] = cl.EpochValues(e)
	}
	return truth
}

// checkAnswer validates one answer against the fault-free trajectory at its
// declared epoch: matching any single epoch exactly is what rules out a
// torn superstep (a read mixing two epochs' values matches neither).
func checkAnswer(ans core.Answer, truth map[int][]float64, tol float64) error {
	if ans.Staleness() < 0 {
		return errors.New("negative staleness")
	}
	vals, ok := truth[ans.Epoch]
	if !ok {
		return errors.New("answer stamped with an unpublished epoch")
	}
	switch ans.Kind {
	case core.QueryValue:
		want := vals[ans.Vertex]
		if tol == 0 {
			if ans.Value != want {
				return errors.New("value does not match ground truth at the declared epoch")
			}
		} else if math.Abs(ans.Value-want) > tol*(1+math.Abs(want)) {
			return errors.New("value outside tolerance of ground truth at the declared epoch")
		}
	case core.QueryTopK:
		for i := 1; i < len(ans.TopK); i++ {
			a, b := ans.TopK[i-1], ans.TopK[i]
			if a.Value < b.Value || (a.Value == b.Value && a.Vertex > b.Vertex) {
				return errors.New("topk not ordered")
			}
		}
		for _, e := range ans.TopK {
			want := vals[e.Vertex]
			if tol == 0 {
				if e.Value != want {
					return errors.New("topk value does not match ground truth at the declared epoch")
				}
			} else if math.Abs(e.Value-want) > tol*(1+math.Abs(want)) {
				return errors.New("topk value outside tolerance")
			}
		}
	}
	return nil
}

// TestServeEpochConsistentDuringFailover is the serving layer's core
// contract: queries hammered concurrently with a failing run — including
// the recovery windows — always observe a superstep-complete, epoch-stamped
// snapshot matching the fault-free trajectory, with staleness bounded by
// one publish interval, in both modes and under all four FT strategies.
func TestServeEpochConsistentDuringFailover(t *testing.T) {
	const iters = 8
	strategies := []struct {
		name string
		rec  core.RecoveryKind
	}{
		{"rebirth", core.RecoverRebirth},
		{"migration", core.RecoverMigration},
		{"checkpoint", core.RecoverCheckpoint},
		{"logged", core.RecoverLogged},
	}
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		g := datasets.Tiny(400, 2400, 77)
		truth := serveTruth(t, mode, g, iters)
		for _, st := range strategies {
			t.Run(mode.String()+"/"+st.name, func(t *testing.T) {
				cfg := ftConfig(mode, 6, iters, 2, st.rec)
				cfg.Logged = core.LoggedConfig{CompactEvery: 3}
				cfg.Serve = core.ServeConfig{Enabled: true}
				cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 1)
				tol := 0.0
				if mode == core.VertexCutMode && st.rec == core.RecoverMigration {
					tol = 1e-9 // migration reorders vcut gather partials
				}
				cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
				if err != nil {
					t.Fatal(err)
				}

				stop := make(chan struct{})
				var wg sync.WaitGroup
				var mu sync.Mutex
				var qerr error
				answered, unavailable := 0, 0
				// Each hammer signals ready after its first query, and Run
				// starts only then, so Result.Serve counts at least two
				// queries however fast the run finishes.
				ready := make(chan struct{}, 2)
				hammer := func(seed uint64) {
					defer wg.Done()
					r := rng.New(seed)
					lastEpoch := -1
					first := true
					for {
						select {
						case <-stop:
							return
						default:
						}
						var q core.Query
						switch r.Intn(3) {
						case 0, 1:
							q = core.Query{Kind: core.QueryValue, Vertex: graph.VertexID(r.Intn(g.NumVertices()))}
						default:
							q = core.Query{Kind: core.QueryTopK, K: 1 + r.Intn(8)}
						}
						ans, err := cl.Query(q)
						if first {
							ready <- struct{}{}
							first = false
						}
						if err != nil {
							if errors.Is(err, core.ErrVertexUnavailable) {
								mu.Lock()
								unavailable++
								mu.Unlock()
								continue
							}
							mu.Lock()
							if qerr == nil {
								qerr = err
							}
							mu.Unlock()
							return
						}
						verr := checkAnswer(ans, truth, tol)
						if verr == nil && ans.Staleness() > 1 {
							verr = errors.New("staleness above one publish interval")
						}
						if verr == nil && ans.Epoch < lastEpoch {
							verr = errors.New("served epoch went backwards")
						}
						lastEpoch = ans.Epoch
						if verr != nil {
							mu.Lock()
							if qerr == nil {
								qerr = verr
							}
							mu.Unlock()
							return
						}
						mu.Lock()
						answered++
						mu.Unlock()
					}
				}
				wg.Add(2)
				go hammer(101)
				go hammer(202)
				<-ready
				<-ready

				res, err := cl.Run()
				close(stop)
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if qerr != nil {
					t.Fatalf("concurrent query failed: %v", qerr)
				}
				if answered == 0 {
					t.Fatal("hammer answered no queries")
				}
				valuesEqual(t, "final values", res.Values, truth[iters], tol)
				if res.Serve == nil || res.Serve.Queries == 0 {
					t.Fatal("Result.Serve missing or empty")
				}
				// Converged cluster serves with zero staleness.
				ans, err := cl.Query(core.Query{Kind: core.QueryValue, Vertex: 0})
				if err != nil {
					t.Fatal(err)
				}
				if ans.Epoch != iters || ans.Staleness() != 0 {
					t.Fatalf("converged answer epoch=%d staleness=%d, want %d/0", ans.Epoch, ans.Staleness(), iters)
				}
			})
		}
	}
}

// TestServeReadAPIs pins the query surface on a converged fault-free run:
// top-k ordering against a full sort, neighborhoods against the CSR, and
// the typed error cases.
func TestServeReadAPIs(t *testing.T) {
	g := datasets.Tiny(300, 1800, 9)
	cfg := ftConfig(core.EdgeCutMode, 4, 6, 1, core.RecoverRebirth)
	cfg.Serve = core.ServeConfig{Enabled: true}
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}

	ans, err := cl.Query(core.Query{Kind: core.QueryTopK, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	type rank struct {
		v graph.VertexID
		x float64
	}
	all := make([]rank, g.NumVertices())
	for v := range all {
		all[v] = rank{graph.VertexID(v), res.Values[v]}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].x != all[j].x {
			return all[i].x > all[j].x
		}
		return all[i].v < all[j].v
	})
	if len(ans.TopK) != 10 {
		t.Fatalf("topk returned %d entries", len(ans.TopK))
	}
	for i, e := range ans.TopK {
		if e.Vertex != all[i].v || e.Value != all[i].x {
			t.Fatalf("topk[%d] = %v/%v, want %v/%v", i, e.Vertex, e.Value, all[i].v, all[i].x)
		}
	}

	var v graph.VertexID
	for v = 0; int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) > 2 {
			break
		}
	}
	nb, err := cl.Query(core.Query{Kind: core.QueryNeighbors, Vertex: v})
	if err != nil {
		t.Fatal(err)
	}
	var want []graph.VertexID
	g.OutEdges(v, func(_ int, e graph.Edge) { want = append(want, e.Dst) })
	if len(nb.Neighbors) != len(want) {
		t.Fatalf("neighbors: %d != %d", len(nb.Neighbors), len(want))
	}
	for i := range want {
		if nb.Neighbors[i] != want[i] {
			t.Fatalf("neighbors[%d] = %d, want %d", i, nb.Neighbors[i], want[i])
		}
	}
	capped, err := cl.Query(core.Query{Kind: core.QueryNeighbors, Vertex: v, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Neighbors) != 2 {
		t.Fatalf("capped neighbors: %d != 2", len(capped.Neighbors))
	}

	if _, err := cl.Query(core.Query{Kind: core.QueryValue, Vertex: graph.VertexID(g.NumVertices())}); !errors.Is(err, core.ErrUnknownVertex) {
		t.Fatalf("out-of-range vertex: %v", err)
	}
	if _, err := cl.Query(core.Query{Kind: core.QueryTopK}); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("topk without K: %v", err)
	}
	if _, err := cl.Query(core.Query{}); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("zero query: %v", err)
	}
}

// TestServeDisabled: querying a cluster without Serve.Enabled is a typed
// error, and enabling Serve for an unsupported value type fails at build.
func TestServeDisabled(t *testing.T) {
	g := datasets.Tiny(100, 500, 3)
	cfg := ftConfig(core.EdgeCutMode, 4, 3, 1, core.RecoverRebirth)
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(core.Query{Kind: core.QueryValue}); !errors.Is(err, core.ErrServeDisabled) {
		t.Fatalf("serve disabled: %v", err)
	}

	cfg.Serve = core.ServeConfig{Enabled: true}
	cfg.MaxIter = 2
	if _, err := core.NewCluster[[]float64, []float64](cfg, g, algorithms.NewALS(60, 4, 0.05)); err == nil {
		t.Fatal("Serve.Enabled with a vector value type should fail NewCluster")
	}
}

// TestServeIdentityWithServing: enabling the serving layer must not perturb
// the simulation — sim_seconds and every message byte are bit-identical
// with serving on or off, even with a failover mid-run.
func TestServeIdentityWithServing(t *testing.T) {
	g := datasets.Tiny(400, 2400, 13)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		base := ftConfig(mode, 5, 8, 1, core.RecoverRebirth)
		base.Chaos = crashAt(3, core.FailBeforeBarrier, 1)
		plain := runPR(t, base, g)

		served := base
		served.Serve = core.ServeConfig{Enabled: true, KeepHistory: true}
		cl, err := core.NewCluster[float64, float64](served, g, algorithms.NewPageRank(g.NumVertices()))
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = cl.Query(core.Query{Kind: core.QueryValue, Vertex: graph.VertexID(i % g.NumVertices())})
			}
		}()
		res, err := cl.Run()
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.SimSeconds != plain.SimSeconds {
			t.Fatalf("%v: sim_seconds changed with serving: %v != %v", mode, res.SimSeconds, plain.SimSeconds)
		}
		if res.Metrics.TotalBytes() != plain.Metrics.TotalBytes() {
			t.Fatalf("%v: msg_bytes changed with serving: %d != %d", mode, res.Metrics.TotalBytes(), plain.Metrics.TotalBytes())
		}
		valuesEqual(t, mode.String()+" values", res.Values, plain.Values, 0)
	}
}
