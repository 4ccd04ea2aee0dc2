package core_test

import (
	"testing"
	"testing/quick"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
)

// TestRandomizedRecoveryEquivalence fuzzes the core claim: random graph,
// random cluster size, random failure schedule, random strategy — the
// answer must match the failure-free run.
func TestRandomizedRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is slow")
	}
	f := func(seed uint64, rawNodes, rawIter, rawVictim, rawMode, rawRec uint8) bool {
		nodes := 3 + int(rawNodes%6) // 3..8
		iters := 6
		failIter := int(rawIter) % iters
		victim := 1 + int(rawVictim)%(nodes-1)
		mode := core.EdgeCutMode
		if rawMode%2 == 1 {
			mode = core.VertexCutMode
		}
		recovery := core.RecoverRebirth
		if rawRec%2 == 1 {
			recovery = core.RecoverMigration
		}
		phase := core.FailBeforeBarrier
		if rawRec%4 >= 2 {
			phase = core.FailAfterBarrier
		}

		g := datasets.Tiny(200+int(seed%200), 1200, seed)
		cfg := core.DefaultConfig(mode, nodes)
		cfg.MaxIter = iters
		cfg.Recovery = recovery
		cfg.MaxRebirths = nodes

		run := func(c core.Config) []float64 {
			cl, err := core.NewCluster[float64, float64](c, g, algorithms.NewSSSP(0))
			if err != nil {
				t.Logf("config rejected: %v", err)
				return nil
			}
			res, err := cl.Run()
			if err != nil {
				t.Logf("run failed (seed %d): %v", seed, err)
				return nil
			}
			return res.Values
		}
		want := run(cfg)
		if want == nil {
			return false
		}
		cfg.Chaos = crashAt(failIter, phase, victim)
		got := run(cfg)
		if got == nil {
			return false
		}
		for v := range want {
			if got[v] != want[v] {
				t.Logf("seed %d nodes %d iter %d victim %d mode %v rec %v phase %v: vertex %d %v != %v",
					seed, nodes, failIter, victim, mode, recovery, phase, v, got[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMirrorFirstPlacementStillRecovers checks the ablation policy keeps
// correctness (it only changes placement, not the protocol).
func TestMirrorFirstPlacementStillRecovers(t *testing.T) {
	g := datasets.Tiny(400, 2400, 404)
	base := core.DefaultConfig(core.EdgeCutMode, 5)
	base.MaxIter = 6
	base.FT.MirrorPlacement = core.MirrorFirst
	base.Recovery = core.RecoverMigration

	run := func(cfg core.Config) []float64 {
		cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	want := run(base)
	withFail := base
	withFail.Chaos = crashAt(3, core.FailBeforeBarrier, 2)
	got := run(withFail)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: %v != %v", v, got[v], want[v])
		}
	}
}
