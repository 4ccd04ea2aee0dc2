package imitator_test

import (
	"errors"
	"testing"

	"imitator/pkg/imitator"
)

// TestServeFacade: ServeOn keeps a run queryable while it executes and
// after it converges, with the options wired through.
func TestServeFacade(t *testing.T) {
	g := ring(t, 200)
	cfg := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(6),
		imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1))),
		imitator.WithFailures(imitator.Crash(3, imitator.FailBeforeBarrier, 2)),
		imitator.WithServe(imitator.ServeKeepHistory()),
	)
	if !cfg.Serve.Enabled || !cfg.Serve.KeepHistory {
		t.Fatalf("serve options not applied: %+v", cfg.Serve)
	}

	srv, err := imitator.ServeOn(imitator.Workload{Algo: "pagerank", Iters: 6}, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Query while the run is (possibly) still executing.
	if _, err := srv.Query(imitator.Query{Kind: imitator.QueryValue, Vertex: 0}); err != nil &&
		!errors.Is(err, imitator.ErrVertexUnavailable) {
		t.Fatalf("mid-run query: %v", err)
	}
	sum, err := srv.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Serve == nil || sum.Serve.Queries == 0 {
		t.Fatalf("summary missing serve stats: %+v", sum.Serve)
	}
	if len(sum.Recoveries) == 0 {
		t.Fatal("crash was not recovered")
	}

	// After convergence the answer is the final epoch at zero staleness.
	ans, err := srv.Query(imitator.Query{Kind: imitator.QueryTopK, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epoch != 6 || ans.Staleness() != 0 || len(ans.TopK) != 5 {
		t.Fatalf("converged top-K: epoch=%d staleness=%d len=%d", ans.Epoch, ans.Staleness(), len(ans.TopK))
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done not closed after Wait")
	}
}

// TestServeFacadeUnsupported: serving a vector-valued algorithm is rejected
// up front, and a query without WithServe reports ErrServeDisabled.
func TestServeFacadeUnsupported(t *testing.T) {
	g := ring(t, 120)
	cfg := imitator.New(imitator.WithNodes(4), imitator.WithIterations(2))
	if _, err := imitator.ServeOn(imitator.Workload{Algo: "als", Iters: 2}, g, cfg); err == nil {
		t.Fatal("serving ALS (vector values) accepted")
	}

	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Serve != nil {
		t.Fatalf("unserved run carries serve stats: %+v", res.Serve)
	}
	cl, err := imitator.NewCluster(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(imitator.Query{Kind: imitator.QueryValue}); !errors.Is(err, imitator.ErrServeDisabled) {
		t.Fatalf("query without serve: %v, want ErrServeDisabled", err)
	}
}
