package core_test

import (
	"errors"
	"slices"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
)

// TestChaosCrashDuringRecovery kills a second node when the first recovery
// reaches a given phase label, for every mode x strategy x phase the
// campaign generator draws from; the restarted recovery must still converge
// to the fault-free answer (§5.3.2).
func TestChaosCrashDuringRecovery(t *testing.T) {
	g := datasets.Tiny(700, 4200, 91)
	for _, tc := range []struct {
		mode   core.Mode
		rec    core.RecoveryKind
		during string
		tol    float64
	}{
		{core.EdgeCutMode, core.RecoverRebirth, "rebirth:join", 0},
		{core.EdgeCutMode, core.RecoverRebirth, "rebirth:reload", 0},
		{core.EdgeCutMode, core.RecoverRebirth, "rebirth:reconstruct", 0},
		{core.EdgeCutMode, core.RecoverMigration, "migration:promote", 0},
		{core.EdgeCutMode, core.RecoverMigration, "migration:moved", 0},
		{core.EdgeCutMode, core.RecoverMigration, "migration:edges", 0},
		{core.EdgeCutMode, core.RecoverMigration, "migration:replicas", 0},
		{core.EdgeCutMode, core.RecoverMigration, "migration:repair", 0},
		{core.VertexCutMode, core.RecoverRebirth, "rebirth:join", 0},
		{core.VertexCutMode, core.RecoverRebirth, "rebirth:reload", 0},
		{core.VertexCutMode, core.RecoverRebirth, "rebirth:reconstruct", 0},
		{core.VertexCutMode, core.RecoverMigration, "migration:promote", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:moved", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:edges", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:replicas", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:repair", 1e-9},
	} {
		label := tc.mode.String() + "/" + tc.rec.String() + "/" + tc.during
		base := ftConfig(tc.mode, 6, 8, 2, tc.rec)
		want := runPR(t, base, g)

		cfg := base
		cfg.Chaos = []core.ChaosEvent{
			{Kind: core.ChaosCrash, Iteration: 3, Phase: core.FailBeforeBarrier, Nodes: []int{1}},
			{Kind: core.ChaosCrashDuringRecovery, During: tc.during, Nodes: []int{4}},
		}
		got := runPR(t, cfg, g)
		valuesEqual(t, label, got.Values, want.Values, tc.tol)
		if len(got.Recoveries) == 0 {
			t.Fatalf("%s: no recovery reported", label)
		}
		last := got.Recoveries[len(got.Recoveries)-1]
		if len(last.Failed) != 2 {
			t.Fatalf("%s: final recovery covered %v, want both victims", label, last.Failed)
		}
		if last.Bytes <= 0 {
			t.Fatalf("%s: final recovery moved no bytes", label)
		}
	}
}

// TestChaosExhaustionFallback: with the standby pool empty and
// RebirthFallback set, a Rebirth recovery must complete as a Migration and
// still match the fault-free run.
func TestChaosExhaustionFallback(t *testing.T) {
	g := datasets.Tiny(500, 3000, 92)
	for _, tc := range []struct {
		mode core.Mode
		tol  float64
	}{
		{core.EdgeCutMode, 0},
		{core.VertexCutMode, 1e-9}, // migration reorders vertex-cut gather merges
	} {
		base := ftConfig(tc.mode, 6, 8, 2, core.RecoverRebirth)
		want := runPR(t, base, g)

		cfg := base
		cfg.MaxRebirths = 0
		cfg.RebirthFallback = true
		cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 2)
		got := runPR(t, cfg, g)
		valuesEqual(t, tc.mode.String(), got.Values, want.Values, tc.tol)
		if len(got.Recoveries) != 1 {
			t.Fatalf("%s: %d recoveries, want 1", tc.mode, len(got.Recoveries))
		}
		r := got.Recoveries[0]
		if r.Kind != "migration" || !r.Fallback {
			t.Fatalf("%s: recovery = %+v, want migration with Fallback", tc.mode, r)
		}
	}
}

// TestChaosExhaustionWithoutFallback: same schedule, no fallback — the run
// must fail with the typed standby-exhaustion error, which also matches the
// generic unrecoverable sentinel.
func TestChaosExhaustionWithoutFallback(t *testing.T) {
	g := datasets.Tiny(300, 1800, 93)
	cfg := ftConfig(core.EdgeCutMode, 4, 6, 1, core.RecoverRebirth)
	cfg.MaxRebirths = 0
	cfg.Chaos = crashAt(2, core.FailBeforeBarrier, 1)
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Run()
	if !errors.Is(err, core.ErrNoStandby) {
		t.Fatalf("err = %v, want ErrNoStandby", err)
	}
	if !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable in chain", err)
	}
}

// TestChaosBeyondK: losing more nodes than replication tolerates surfaces
// the typed too-many-failures error.
func TestChaosBeyondK(t *testing.T) {
	g := datasets.Tiny(600, 3600, 94)
	cfg := ftConfig(core.EdgeCutMode, 6, 6, 1, core.RecoverRebirth)
	cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 1, 2)
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Run()
	if !errors.Is(err, core.ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if !errors.Is(err, core.ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable in chain", err)
	}
}

// TestChaosEveryNodeCrashes: a schedule that leaves no node alive — at an
// iteration boundary, or by killing the last survivors while a migration
// pass runs — ends in the typed error. With nobody left to reach the barrier
// such runs used to carry on with zero nodes and report success with every
// value wrong (or divide by zero picking a survivor).
func TestChaosEveryNodeCrashes(t *testing.T) {
	g := datasets.Tiny(600, 3600, 94)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		for _, tc := range []struct {
			name  string
			rec   core.RecoveryKind
			sched []core.ChaosEvent
		}{
			{"at the barrier", core.RecoverRebirth, crashAt(3, core.FailBeforeBarrier, 0, 1, 2, 3)},
			{"during recovery", core.RecoverMigration, append(crashAt(3, core.FailBeforeBarrier, 0),
				core.ChaosEvent{Kind: core.ChaosCrashDuringRecovery, Nodes: []int{1, 2, 3}})},
		} {
			cfg := ftConfig(mode, 4, 8, 1, tc.rec)
			cfg.Chaos = tc.sched
			cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
			if err != nil {
				t.Fatal(err)
			}
			_, err = cl.Run()
			if !errors.Is(err, core.ErrTooManyFailures) || !errors.Is(err, core.ErrUnrecoverable) {
				t.Errorf("%v, %s: err = %v, want ErrTooManyFailures wrapping ErrUnrecoverable", mode, tc.name, err)
			}
		}
	}
}

// TestRecoveryHookSeesTableLabels: for every mode x strategy, a single-crash
// run announces exactly its strategy's RecoveryPhaseLabels through
// SetRecoveryHook — once each, in table order.
func TestRecoveryHookSeesTableLabels(t *testing.T) {
	g := datasets.Tiny(600, 3600, 77)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		for _, rec := range []core.RecoveryKind{core.RecoverRebirth, core.RecoverMigration, core.RecoverCheckpoint, core.RecoverLogged} {
			cfg := ftConfig(mode, 6, 8, 1, rec)
			if rec == core.RecoverLogged {
				cfg = loggedConfig(mode, 6, 8)
			}
			cfg.Chaos = crashAt(4, core.FailBeforeBarrier, 2)
			cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
			if err != nil {
				t.Fatal(err)
			}
			var seen []string
			cl.SetRecoveryHook(func(phase string) { seen = append(seen, phase) })
			if _, err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			if want := core.RecoveryPhaseLabels(rec); !slices.Equal(seen, want) {
				t.Errorf("%v/%v: hook saw %q, want %q", mode, rec, seen, want)
			}
		}
	}
}

// TestChaosDegradationSlowsButPreservesValues: link slowdowns and delay
// bursts cost simulated time without perturbing a single float of the
// computation.
func TestChaosDegradationSlowsButPreservesValues(t *testing.T) {
	g := datasets.Tiny(500, 3000, 95)
	base := core.DefaultConfig(core.EdgeCutMode, 4)
	base.MaxIter = 6
	want := runPR(t, base, g)

	slow := base
	slow.Chaos = []core.ChaosEvent{
		{Kind: core.ChaosSlowLink, Iteration: 1, From: 0, To: 2, Factor: 8},
		{Kind: core.ChaosDelayBurst, Iteration: 3, Seconds: 0.25},
	}
	got := runPR(t, slow, g)
	valuesEqual(t, "degraded", got.Values, want.Values, 0)
	if got.SimSeconds <= want.SimSeconds {
		t.Fatalf("degradation did not cost time: %v <= %v", got.SimSeconds, want.SimSeconds)
	}
	if got.Metrics.TotalBytes() != want.Metrics.TotalBytes() {
		t.Fatalf("degradation changed traffic accounting: %d != %d",
			got.Metrics.TotalBytes(), want.Metrics.TotalBytes())
	}
}

// TestChaosValidate covers schedule validation sentinels.
func TestChaosValidate(t *testing.T) {
	g := datasets.Tiny(100, 600, 96)
	for _, tc := range []struct {
		name string
		mut  func(*core.Config)
	}{
		{"crash iteration out of range", func(c *core.Config) {
			c.Chaos = crashAt(99, core.FailBeforeBarrier, 1)
		}},
		{"crash node out of range", func(c *core.Config) {
			c.Chaos = crashAt(2, core.FailBeforeBarrier, 17)
		}},
		{"slow link self loop", func(c *core.Config) {
			c.Chaos = []core.ChaosEvent{{Kind: core.ChaosSlowLink, Iteration: 1, From: 2, To: 2, Factor: 4}}
		}},
		{"slow link bad factor", func(c *core.Config) {
			c.Chaos = []core.ChaosEvent{{Kind: core.ChaosSlowLink, Iteration: 1, From: 0, To: 1, Factor: 0.5}}
		}},
		{"negative delay", func(c *core.Config) {
			c.Chaos = []core.ChaosEvent{{Kind: core.ChaosDelayBurst, Iteration: 1, Seconds: -1}}
		}},
		{"crash without recovery", func(c *core.Config) {
			c.Recovery = core.RecoverNone
			c.FT = core.FTConfig{}
			c.Chaos = crashAt(2, core.FailBeforeBarrier, 1)
		}},
		{"crash during a recovery phase no strategy has", func(c *core.Config) {
			c.Chaos = append(crashAt(2, core.FailBeforeBarrier, 1),
				core.ChaosEvent{Kind: core.ChaosCrashDuringRecovery, During: "migraton:repair", Nodes: []int{2}})
		}},
	} {
		cfg := ftConfig(core.EdgeCutMode, 4, 6, 1, core.RecoverRebirth)
		tc.mut(&cfg)
		if _, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices())); !errors.Is(err, core.ErrInvalidSchedule) {
			t.Fatalf("%s: err = %v, want ErrInvalidSchedule", tc.name, err)
		}
	}
}
