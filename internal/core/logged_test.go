package core_test

import (
	"errors"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
)

// loggedConfig builds a config running log-based failure-confined recovery
// without replication (the strategy's selling point: no FT replicas, no
// cluster-wide snapshots).
func loggedConfig(mode core.Mode, numNodes, iters int) core.Config {
	cfg := core.DefaultConfig(mode, numNodes)
	cfg.MaxIter = iters
	cfg.Recovery = core.RecoverLogged
	cfg.MaxRebirths = 8
	return cfg
}

// TestLoggedRecoveryEquivalence: a crash plus log replay yields exactly the
// fault-free answer, in both engine modes, for both algorithm styles.
func TestLoggedRecoveryEquivalence(t *testing.T) {
	g := datasets.Tiny(600, 3600, 77)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		mode := mode
		t.Run("pagerank/"+mode.String(), func(t *testing.T) {
			base := loggedConfig(mode, 6, 8)
			want := runPR(t, base, g)
			withFail := base
			withFail.Chaos = crashAt(4, core.FailBeforeBarrier, 2)
			got := runPR(t, withFail, g)
			valuesEqual(t, mode.String(), got.Values, want.Values, 0)
			if len(got.Recoveries) != 1 {
				t.Fatalf("expected 1 recovery, got %d", len(got.Recoveries))
			}
			r := got.Recoveries[0]
			if r.Kind != "logged" {
				t.Errorf("Kind = %q, want logged", r.Kind)
			}
			if r.RecoveredVertices == 0 {
				t.Error("no vertices recovered")
			}
			if r.TotalSeconds() <= 0 {
				t.Error("recovery accounted no simulated time")
			}
		})
		t.Run("sssp/"+mode.String(), func(t *testing.T) {
			base := loggedConfig(mode, 6, 40)
			want := runSP(t, base, g)
			withFail := base
			withFail.Chaos = crashAt(3, core.FailBeforeBarrier, 1)
			got := runSP(t, withFail, g)
			valuesEqual(t, mode.String(), got.Values, want.Values, 0)
		})
	}
}

// TestLoggedSurvivorsZeroRecompute is the strategy's defining property
// (arXiv:1601.06496): recovery re-executes zero supersteps — survivors only
// wait while the reborn node replays its own logs. Checkpoint recovery from
// the same crash re-executes lost supersteps cluster-wide.
func TestLoggedSurvivorsZeroRecompute(t *testing.T) {
	g := datasets.Tiny(600, 3600, 77)
	const iters = 8
	countIterations := func(res *core.Result[float64]) int {
		n := 0
		for _, ev := range res.Trace {
			if ev.Kind == core.TraceIteration {
				n++
			}
		}
		return n
	}

	cfg := loggedConfig(core.EdgeCutMode, 6, iters)
	cfg.Chaos = crashAt(5, core.FailBeforeBarrier, 2)
	logged := runPR(t, cfg, g)
	r := logged.Recoveries[0]
	if r.ReplayIters != 0 {
		t.Errorf("logged ReplayIters = %d, want 0 (survivors must not recompute)", r.ReplayIters)
	}
	// Crash at iteration 5: the reborn node alone replays logs 0..4.
	if r.LogReplaySupersteps != 5 {
		t.Errorf("LogReplaySupersteps = %d, want 5", r.LogReplaySupersteps)
	}
	// Every superstep was executed exactly once cluster-wide: the aborted
	// attempt of iteration 5 commits nothing, and recovery adds no extra
	// committed iterations.
	if got := countIterations(logged); got != iters {
		t.Errorf("logged run committed %d iterations, want %d", got, iters)
	}

	ck := ftConfig(core.EdgeCutMode, 6, iters, 1, core.RecoverCheckpoint)
	ck.Checkpoint.Interval = 3
	ck.Chaos = crashAt(5, core.FailBeforeBarrier, 2)
	ckres := runPR(t, ck, g)
	cr := ckres.Recoveries[0]
	if cr.ReplayIters == 0 {
		t.Error("checkpoint recovery replayed no supersteps; expected cluster-wide re-execution")
	}
	if got := countIterations(ckres); got != iters+cr.ReplayIters {
		t.Errorf("checkpoint run committed %d iterations, want %d (re-execution)", got, iters+cr.ReplayIters)
	}
}

// TestLoggedCompaction: full records bound the replay chain without
// changing results.
func TestLoggedCompaction(t *testing.T) {
	g := datasets.Tiny(500, 3000, 78)
	base := loggedConfig(core.EdgeCutMode, 5, 10)
	want := runPR(t, base, g)

	// No compaction: a crash at iteration 7 replays logs 0..6.
	plain := base
	plain.Chaos = crashAt(7, core.FailBeforeBarrier, 1)
	got := runPR(t, plain, g)
	valuesEqual(t, "nocompact", got.Values, want.Values, 0)
	if got.Recoveries[0].LogReplaySupersteps != 7 {
		t.Errorf("LogReplaySupersteps = %d, want 7", got.Recoveries[0].LogReplaySupersteps)
	}

	// CompactEvery=3 writes full records at supersteps 2 and 5; the chain
	// for the same crash starts at 5: logs 5, 6.
	compact := base
	compact.Logged.CompactEvery = 3
	compact.Chaos = crashAt(7, core.FailBeforeBarrier, 1)
	gotC := runPR(t, compact, g)
	valuesEqual(t, "compact", gotC.Values, want.Values, 0)
	if gotC.Recoveries[0].LogReplaySupersteps != 2 {
		t.Errorf("compacted LogReplaySupersteps = %d, want 2", gotC.Recoveries[0].LogReplaySupersteps)
	}
}

// TestLoggedCrashDuringRecovery: a second failure mid-replay restarts the
// pass with the union; the pristine rebuild makes replay idempotent.
func TestLoggedCrashDuringRecovery(t *testing.T) {
	g := datasets.Tiny(700, 4200, 84)
	base := loggedConfig(core.EdgeCutMode, 6, 8)
	want := runPR(t, base, g)

	for _, phase := range []string{"logged:join", "logged:replay"} {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			cfg := base
			cfg.Chaos = append(crashAt(3, core.FailBeforeBarrier, 1),
				core.ChaosEvent{Kind: core.ChaosCrashDuringRecovery, During: phase, Nodes: []int{4}})
			res := runPR(t, cfg, g)
			valuesEqual(t, phase, res.Values, want.Values, 0)
			if last := res.Recoveries[len(res.Recoveries)-1]; len(last.Failed) != 2 {
				t.Fatalf("final recovery covered %v, want both victims", last.Failed)
			}
		})
	}
}

// TestLoggedMultipleAndSequentialFailures: simultaneous and back-to-back
// crashes both confine recovery to the reborn nodes.
func TestLoggedMultipleAndSequentialFailures(t *testing.T) {
	g := datasets.Tiny(800, 4800, 80)
	base := loggedConfig(core.VertexCutMode, 8, 8)
	want := runPR(t, base, g)

	multi := base
	multi.Chaos = crashAt(4, core.FailBeforeBarrier, 1, 4, 6)
	got := runPR(t, multi, g)
	valuesEqual(t, "multi", got.Values, want.Values, 0)

	seq := base
	seq.Chaos = []core.ChaosEvent{
		{Kind: core.ChaosCrash, Iteration: 3, Phase: core.FailBeforeBarrier, Nodes: []int{1}},
		{Kind: core.ChaosCrash, Iteration: 6, Phase: core.FailAfterBarrier, Nodes: []int{4}},
	}
	got = runPR(t, seq, g)
	valuesEqual(t, "sequential", got.Values, want.Values, 0)
	if len(got.Recoveries) != 2 {
		t.Fatalf("expected 2 recoveries, got %d", len(got.Recoveries))
	}
	// The second crash (after barrier at iteration 6, committed iter 7)
	// replays a longer chain than the first.
	if a, b := got.Recoveries[0].LogReplaySupersteps, got.Recoveries[1].LogReplaySupersteps; b <= a {
		t.Errorf("second recovery replayed %d supersteps, want more than first's %d", b, a)
	}
}

// TestLoggedStats: the uniform Result.Strategy accounting reports the log
// writer's work.
func TestLoggedStats(t *testing.T) {
	g := datasets.Tiny(500, 3000, 86)
	plainCfg := core.DefaultConfig(core.EdgeCutMode, 5)
	plainCfg.MaxIter = 8
	plainCfg.Recovery = core.RecoverNone
	plain := runPR(t, plainCfg, g)
	if plain.Strategy.Kind != "none" || plain.Strategy.PersistCount != 0 {
		t.Errorf("plain Strategy = %+v, want none/0", plain.Strategy)
	}

	cfg := loggedConfig(core.EdgeCutMode, 5, 8)
	res := runPR(t, cfg, g)
	st := res.Strategy
	if st.Kind != "logged" {
		t.Errorf("Kind = %q, want logged", st.Kind)
	}
	if st.PersistCount != 8 {
		t.Errorf("PersistCount = %d, want 8 (one log round per superstep)", st.PersistCount)
	}
	if st.PersistSeconds <= 0 || st.PersistedBytes == 0 || st.LogRecords == 0 {
		t.Errorf("log accounting empty: %+v", st)
	}
	if res.SimSeconds <= plain.SimSeconds {
		t.Error("logging should cost simulated time")
	}
}

// TestLoggedStandbyExhaustion: logged recovery draws from the same standby
// pool as rebirth.
func TestLoggedStandbyExhaustion(t *testing.T) {
	g := datasets.Tiny(300, 1800, 83)
	cfg := loggedConfig(core.EdgeCutMode, 4, 6)
	cfg.MaxRebirths = 0
	cfg.Chaos = crashAt(2, core.FailBeforeBarrier, 1)
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(); !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

// TestStrategyValidation: invalid strategy combinations are rejected at one
// seam with the typed error.
func TestStrategyValidation(t *testing.T) {
	for name, mutate := range map[string]func(*core.Config){
		"bad-ckpt-interval": func(c *core.Config) {
			c.Recovery = core.RecoverCheckpoint
			c.Checkpoint = core.CheckpointConfig{Interval: 0}
		},
		"bad-compact-every": func(c *core.Config) {
			c.Recovery = core.RecoverLogged
			c.Logged = core.LoggedConfig{CompactEvery: -1}
		},
		"unknown-mirror-placement-rebirth": func(c *core.Config) {
			c.Recovery = core.RecoverRebirth
			c.FT.MirrorPlacement = core.MirrorFirst + 1
		},
		"unknown-mirror-placement-migration": func(c *core.Config) {
			c.Recovery = core.RecoverMigration
			c.FT.MirrorPlacement = -1
		},
		"fallback-without-replicas": func(c *core.Config) {
			c.Checkpoint = core.CheckpointConfig{Interval: 1}
			c.Recovery = core.RecoverCheckpoint
			c.RebirthFallback = true
		},
	} {
		cfg := core.DefaultConfig(core.EdgeCutMode, 4)
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, core.ErrInvalidStrategy) {
			t.Errorf("%s: err = %v, want ErrInvalidStrategy", name, err)
		}
	}
}
