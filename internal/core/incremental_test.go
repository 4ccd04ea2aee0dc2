package core_test

import (
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
)

// incCfg builds a checkpoint-recovery config with optional incremental
// snapshots.
func incCfg(iters, interval int, incremental bool) core.Config {
	cfg := core.DefaultConfig(core.EdgeCutMode, 5)
	cfg.MaxIter = iters
	cfg.Recovery = core.RecoverCheckpoint
	cfg.Checkpoint = core.CheckpointConfig{Interval: interval, Incremental: incremental, FullEvery: 3}
	cfg.MaxRebirths = 4
	return cfg
}

// TestIncrementalCheckpointCheaperForSparseUpdates: with SSSP's shrinking
// active set, incremental snapshots write far fewer bytes than full ones.
func TestIncrementalCheckpointCheaperForSparseUpdates(t *testing.T) {
	g := datasets.Tiny(800, 4800, 505)
	run := func(incremental bool) *core.Result[float64] {
		cfg := incCfg(30, 1, incremental)
		cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewSSSP(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(false)
	inc := run(true)
	if inc.Metrics.DFSWriteBytes >= full.Metrics.DFSWriteBytes {
		t.Errorf("incremental wrote %d bytes, full wrote %d — no saving",
			inc.Metrics.DFSWriteBytes, full.Metrics.DFSWriteBytes)
	}
	if inc.Strategy.PersistSeconds >= full.Strategy.PersistSeconds {
		t.Errorf("incremental checkpointing %.3fs not below full %.3fs",
			inc.Strategy.PersistSeconds, full.Strategy.PersistSeconds)
	}
}

// TestIncrementalCheckpointRecoveryEquivalence: recovering from a chain of
// deltas yields exactly the failure-free answer.
func TestIncrementalCheckpointRecoveryEquivalence(t *testing.T) {
	g := datasets.Tiny(600, 3600, 506)
	for _, algo := range []string{"pagerank", "sssp"} {
		run := func(fail bool) []float64 {
			cfg := incCfg(12, 2, true)
			if fail {
				cfg.Chaos = crashAt(9, core.FailBeforeBarrier, 2)
			}
			var res *core.Result[float64]
			var err error
			var cl *core.Cluster[float64, float64]
			if algo == "pagerank" {
				cl, err = core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
			} else {
				cl, err = core.NewCluster[float64, float64](cfg, g, algorithms.NewSSSP(0))
			}
			if err != nil {
				t.Fatal(err)
			}
			if res, err = cl.Run(); err != nil {
				t.Fatal(err)
			}
			return res.Values
		}
		want := run(false)
		got := run(true)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: vertex %d: %v != %v", algo, v, got[v], want[v])
			}
		}
	}
}

// TestIncrementalChainDepthBounded: FullEvery bounds how many snapshots a
// recovery reads.
func TestIncrementalChainDepthBounded(t *testing.T) {
	g := datasets.Tiny(400, 2400, 507)
	cfg := incCfg(14, 1, true) // FullEvery=3: fulls at epochs 0,3,6,9,12
	cfg.Chaos = crashAt(13, core.FailBeforeBarrier, 1)
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries = %d", len(res.Recoveries))
	}
	// Failure at iter 13 => last snapshot epoch 13, chain 12..13: replay 0.
	if res.Recoveries[0].ReplayIters != 0 {
		t.Errorf("ReplayIters = %d, want 0 (snapshot every iter)", res.Recoveries[0].ReplayIters)
	}
}
