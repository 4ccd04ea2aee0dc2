package core_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/chaos"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// restartGolden is one crash-during-recovery job's outcome: the final
// RecoveryReport's traffic and phase seconds (float bits), the simulated
// clock's bits, total wire bytes and a hash of the value bits.
type restartGolden struct {
	values, sim                 uint64
	reload, reconstruct, replay uint64
	msgs, bytes, wire           int64
}

// restartGoldens were recorded on the commit before the recovery rounds moved
// into one exchange helper. They pin the paths the single-crash goldens never
// run: migration's restart reconciliation, a restarted fullResync (checkpoint)
// and a restarted log replay. The migration:promote, :moved and :edges rows,
// in both modes, were re-recorded when Migration's pending work became slot
// flags: an attempt interrupted before FT repair used to leave the masters it
// had pruned with fewer than K mirrors, because the restart found nothing
// left to prune and so never repaired them. It now repairs every master
// still marked stale, which costs more traffic and time; the value hashes
// did not move.
var restartGoldens = map[string]restartGolden{
	"edge-cut/rebirth/rebirth:join":           {0x2e3dd72f54759d42, 0x4009ba1ed9c7fe60, 0x3fa8785e27445940, 0x3f6bb45bbcbf3800, 0x0, 745, 110754, 352281},
	"edge-cut/rebirth/rebirth:reload":         {0x2e3dd72f54759d42, 0x4009c32987a0ea1e, 0x3fa8785e27445940, 0x3f60989ec7d6c400, 0x0, 745, 110754, 356759},
	"edge-cut/rebirth/rebirth:reconstruct":    {0x2e3dd72f54759d42, 0x4009c32987a0ea1f, 0x3fa8785e27445940, 0x3f60989ec7d6c400, 0x0, 745, 110754, 356759},
	"edge-cut/migration/migration:promote":    {0x2e3dd72f54759d42, 0x4009d977f7886236, 0x3f602f9f71918400, 0x3fb89e79d32ab4e0, 0x0, 2393, 210911, 391058},
	"edge-cut/migration/migration:moved":      {0x2e3dd72f54759d42, 0x4009e08a821636e6, 0x3f60c42bccc5d000, 0x3fb833610ec6fb80, 0x0, 2188, 207159, 391692},
	"edge-cut/migration/migration:edges":      {0x2e3dd72f54759d42, 0x4009e08a821636e6, 0x3f60c42bccc5d000, 0x3fb833610ec6fb80, 0x0, 2188, 207159, 391692},
	"edge-cut/migration/migration:replicas":   {0x2e3dd72f54759d42, 0x400a18a475dd4380, 0x3f7298191f442000, 0x3fb33b8dbc5d5aa0, 0x0, 1801, 162995, 472014},
	"edge-cut/migration/migration:repair":     {0x2e3dd72f54759d42, 0x400a278e4ca61294, 0x3f63a22c9e7ce800, 0x3fb48c4bd33d2940, 0x0, 1901, 174899, 491524},
	"edge-cut/checkpoint/checkpoint:reload":   {0x2e3dd72f54759d42, 0x400cb43e75afb415, 0x3fc0ffa01102efe0, 0x3f821b5a402f0c00, 0x3f88518d914d9a00, 1194, 21492, 192236},
	"edge-cut/logged/logged:replay":           {0x2e3dd72f54759d42, 0x400bca170b0c3140, 0x3fb0190777fa5a60, 0x0, 0x3fb45eae146408e0, 0, 0, 136916},
	"vertex-cut/rebirth/rebirth:join":         {0x63b2e88882c22ab, 0x400baa3c94877e5a, 0x3fc14c47e7f00660, 0x3f6e353f7ced9000, 0x0, 812, 51017, 437005},
	"vertex-cut/rebirth/rebirth:reload":       {0x63b2e88882c22ab, 0x400bb17335bca612, 0x3fc14c47e7f00660, 0x3f61f3e89a88ac00, 0x0, 812, 51017, 440381},
	"vertex-cut/rebirth/rebirth:reconstruct":  {0x63b2e88882c22ab, 0x400bb17335bca611, 0x3fc14c47e7f00660, 0x3f61f3e89a88ac00, 0x0, 812, 51017, 440381},
	"vertex-cut/migration/migration:promote":  {0xe4d74453e8e17df8, 0x400aab239d6954fd, 0x3f601e2584f4c800, 0x3fc11a7b73ee9170, 0x0, 2535, 107006, 423562},
	"vertex-cut/migration/migration:moved":    {0xe4d74453e8e17df8, 0x400ae40dee80c1cc, 0x3f60a137f38c5400, 0x3fc0df2514f59600, 0x0, 2304, 102810, 424384},
	"vertex-cut/migration/migration:edges":    {0xe4d74453e8e17df8, 0x400ae40bbf432e33, 0x3f60987afd3df400, 0x3fc0e37c928aed10, 0x0, 2321, 103118, 424326},
	"vertex-cut/migration/migration:replicas": {0xe4d74453e8e17df8, 0x400b6e576f941bcd, 0x3f73142dfc036200, 0x3fbe72558c8382e0, 0x0, 1952, 81854, 467676},
	"vertex-cut/migration/migration:repair":   {0xc8043589ea2734a, 0x400b789b7d6893c1, 0x3f653420e091ec00, 0x3fbf3e369aee59c0, 0x0, 2030, 86335, 476333},
	"vertex-cut/checkpoint/checkpoint:reload": {0x63b2e88882c22ab, 0x400d37be2434ef96, 0x3fc035e4953bdcd0, 0x3f8359e8f1375700, 0x3f9450e56c2fbc00, 1288, 23184, 400125},
	"vertex-cut/logged/logged:replay":         {0x63b2e88882c22ab, 0x400c499d6aa91f92, 0x3fb13f85da2004c0, 0x0, 0x3fb5257696a3dbe0, 0, 0, 320227},
}

// TestChaosCrashDuringRecovery kills a second node when the first recovery
// reaches a given phase label, for every mode x strategy x phase the
// campaign generator draws from; the restarted recovery must still converge
// to the fault-free answer (§5.3.2) and reproduce its golden bit for bit.
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
		{core.EdgeCutMode, core.RecoverCheckpoint, "checkpoint:reload", 0},
		{core.EdgeCutMode, core.RecoverLogged, "logged:replay", 0},
		{core.VertexCutMode, core.RecoverRebirth, "rebirth:join", 0},
		{core.VertexCutMode, core.RecoverRebirth, "rebirth:reload", 0},
		{core.VertexCutMode, core.RecoverRebirth, "rebirth:reconstruct", 0},
		{core.VertexCutMode, core.RecoverMigration, "migration:promote", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:moved", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:edges", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:replicas", 1e-9},
		{core.VertexCutMode, core.RecoverMigration, "migration:repair", 1e-9},
		{core.VertexCutMode, core.RecoverCheckpoint, "checkpoint:reload", 0},
		{core.VertexCutMode, core.RecoverLogged, "logged:replay", 0},
	} {
		label := tc.mode.String() + "/" + tc.rec.String() + "/" + tc.during
		base := ftConfig(tc.mode, 6, 8, 2, tc.rec)
		if tc.rec == core.RecoverLogged {
			base = loggedConfig(tc.mode, 6, 8)
		}
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
		if last.Bytes <= 0 && tc.rec != core.RecoverLogged {
			t.Fatalf("%s: final recovery moved no bytes", label)
		}
		gotPin := restartGolden{
			values: hashBits(got.Values), sim: math.Float64bits(got.SimSeconds),
			reload: math.Float64bits(last.ReloadSeconds), reconstruct: math.Float64bits(last.ReconstructSeconds),
			replay: math.Float64bits(last.ReplaySeconds),
			msgs:   last.Msgs, bytes: last.Bytes, wire: got.Metrics.TotalBytes(),
		}
		if wantPin, ok := restartGoldens[label]; !ok || gotPin != wantPin {
			t.Errorf("%q: {%#x, %#x, %#x, %#x, %#x, %d, %d, %d}, // got; want %+v", label,
				gotPin.values, gotPin.sim, gotPin.reload, gotPin.reconstruct, gotPin.replay,
				gotPin.msgs, gotPin.bytes, gotPin.wire, wantPin)
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
			{"after the moves", core.RecoverMigration, append(crashAt(3, core.FailBeforeBarrier, 0),
				core.ChaosEvent{Kind: core.ChaosCrashDuringRecovery, During: "migration:moved", Nodes: []int{1, 2, 3}})},
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

// mixedSchedule puts every chaos kind on iteration 3: the heal of a
// partition begun at 2 (whose recovery a crash-during-recovery interrupts),
// three drops, a second partition, two slow links, two delay bursts and two
// separate crash events sharing the (3, before-barrier) key. Order shows:
// the later drop and slow link on a link override the earlier ones, and the
// heal of node 6 must precede the cut around node 5, which it would
// otherwise reopen on the 5-6 link. The delay bursts land on iteration 3's
// first execution attempt only; the crash events fail nodes 1 and 2 as one
// victim set.
func mixedSchedule() []core.ChaosEvent {
	return []core.ChaosEvent{
		{Kind: core.ChaosPartition, Iteration: 2, Nodes: []int{6}, HealIter: 3},
		{Kind: core.ChaosSlowLink, Iteration: 3, From: 0, To: 3, Factor: 3},
		{Kind: core.ChaosDelayBurst, Iteration: 3, Seconds: 0.002},
		{Kind: core.ChaosDrop, Iteration: 3, From: 3, To: 7, Prob: 0.3},
		{Kind: core.ChaosPartition, Iteration: 3, Nodes: []int{5}, HealIter: 5},
		{Kind: core.ChaosCrash, Iteration: 3, Phase: core.FailBeforeBarrier, Nodes: []int{1}},
		{Kind: core.ChaosDrop, Iteration: 3, From: 7, To: 3, Prob: 0.1},
		{Kind: core.ChaosDelayBurst, Iteration: 3, Seconds: 0.003},
		{Kind: core.ChaosCrash, Iteration: 3, Phase: core.FailBeforeBarrier, Nodes: []int{2}},
		{Kind: core.ChaosSlowLink, Iteration: 3, From: 0, To: 3, Factor: 6},
		{Kind: core.ChaosDrop, Iteration: 3, From: 3, To: 7, Prob: 0.05},
		{Kind: core.ChaosCrashDuringRecovery, Nodes: []int{4}},
	}
}

// mixedGoldens pin mixedSchedule's outcome per mode and strategy. They were
// recorded before the chaos runtime moved from iteration-keyed maps to the
// schedule plus per-event fired flags: applying an event twice, out of
// stage or schedule order, or failing same-key crashes one at a time moves
// them. The edge-cut/migration row was re-recorded, and the vertex-cut one
// added, when a restarted Migration pass began to repair the masters its
// interrupted attempt had pruned (see restartGoldens); before that the
// vertex-cut job lost a vertex at the triple failure.
var mixedGoldens = map[string]restartGolden{
	"edge-cut/rebirth":     {0x2e3dd72f54759d42, 0x401923ee88af7e68, 0x3fa8b6bc787a1d80, 0x3f606177135cd800, 0x0, 1138, 166666, 622086},
	"edge-cut/migration":   {0x2e3dd72f54759d42, 0x401a4bb52ce4ac29, 0x3f8027779cbfd600, 0x3fd08a053091b010, 0x0, 2820, 243857, 771775},
	"vertex-cut/rebirth":   {0x5c2693f5d16490e4, 0x401af923d52832ce, 0x3fc6671764c82ce0, 0x3f5f7e4a88ba5000, 0x0, 1156, 82921, 660558},
	"vertex-cut/migration": {0xb8ba387b6a26527, 0x401acae2637a0a80, 0x3f8064a258e46e00, 0x3fcd90341f3dbc00, 0x0, 2891, 120957, 652763},
}

// TestChaosMixedSchedulePinned runs mixedSchedule and checks the outcome
// against mixedGoldens: the value hash, the simulated clock, the last
// recovery's phase seconds and traffic, and the total wire bytes.
func TestChaosMixedSchedulePinned(t *testing.T) {
	g := datasets.Tiny(700, 4200, 91)
	for _, tc := range []struct {
		mode core.Mode
		rec  core.RecoveryKind
	}{
		{core.EdgeCutMode, core.RecoverRebirth},
		{core.EdgeCutMode, core.RecoverMigration},
		{core.VertexCutMode, core.RecoverRebirth},
		{core.VertexCutMode, core.RecoverMigration},
	} {
		label := tc.mode.String() + "/" + tc.rec.String()
		cfg := ftConfig(tc.mode, 8, 8, 3, tc.rec)
		cfg.Chaos = mixedSchedule()
		got := runPR(t, cfg, g)
		if len(got.Recoveries) != 2 {
			t.Fatalf("%s: %d recoveries, want 2", label, len(got.Recoveries))
		}
		first, last := got.Recoveries[0], got.Recoveries[1]
		if !slices.Equal(first.Failed, []int{6, 4}) || !slices.Equal(last.Failed, []int{1, 2, 5}) {
			t.Fatalf("%s: recoveries covered %v then %v, want [6 4] then [1 2 5]", label, first.Failed, last.Failed)
		}
		gotPin := restartGolden{
			values: hashBits(got.Values), sim: math.Float64bits(got.SimSeconds),
			reload: math.Float64bits(last.ReloadSeconds), reconstruct: math.Float64bits(last.ReconstructSeconds),
			replay: math.Float64bits(last.ReplaySeconds),
			msgs:   last.Msgs, bytes: last.Bytes, wire: got.Metrics.TotalBytes(),
		}
		if wantPin, ok := mixedGoldens[label]; !ok || gotPin != wantPin {
			t.Errorf("%q: {%#x, %#x, %#x, %#x, %#x, %d, %d, %d}, // got; want %+v", label,
				gotPin.values, gotPin.sim, gotPin.reload, gotPin.reconstruct, gotPin.replay,
				gotPin.msgs, gotPin.bytes, gotPin.wire, wantPin)
		}
	}
}

// TestChaosSameKeyCrashesFailTogether: two crash events sharing an
// (iteration, phase) key fail their nodes as one victim set, bit for bit
// like one event naming both.
func TestChaosSameKeyCrashesFailTogether(t *testing.T) {
	g := datasets.Tiny(600, 3600, 94)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		cfg := ftConfig(mode, 6, 8, 2, core.RecoverMigration)
		cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 1, 2)
		want := runPR(t, cfg, g)
		cfg.Chaos = append(crashAt(3, core.FailBeforeBarrier, 1), crashAt(3, core.FailBeforeBarrier, 2)...)
		got := runPR(t, cfg, g)
		if hashBits(got.Values) != hashBits(want.Values) || got.SimSeconds != want.SimSeconds ||
			got.Metrics.TotalBytes() != want.Metrics.TotalBytes() || len(got.Recoveries) != 1 ||
			!slices.Equal(got.Recoveries[0].Failed, want.Recoveries[0].Failed) {
			t.Errorf("%v: split crash events ran %v in %v s / %d B, one event %v in %v s / %d B", mode,
				got.Recoveries, got.SimSeconds, got.Metrics.TotalBytes(),
				want.Recoveries, want.SimSeconds, want.Metrics.TotalBytes())
		}
	}
}

// TestChaosRebirthFallbackInheritsNewbie: Rebirth with one standby places a
// newbie in slot 3; a crash of node 5 during the join exhausts the pool, so
// the restarted pass falls back to Migration over {3, 5}. The fallback must
// treat slot 3 as lost, not migrate from the half-built newbie it inherits,
// and converge to the fault-free labels in both modes.
func TestChaosRebirthFallbackInheritsNewbie(t *testing.T) {
	g := symmetricGraph(400, 600, 63)
	sched, err := chaos.ParseEvents("crash@4a=3|crashrec@rebirth:join=5")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		cfg := core.DefaultConfig(mode, 8)
		cfg.MaxIter = 22
		if mode == core.VertexCutMode {
			cfg.Partitioner = core.PartRandom
		}
		want := runCC(t, cfg, g)

		cfg.Recovery = core.RecoverRebirth
		cfg.FT = core.FTConfig{K: 2, SelfishOpt: true}
		cfg.MaxRebirths = 1
		cfg.RebirthFallback = true
		cfg.Chaos = sched
		got := runCC(t, cfg, g)
		if !slices.Equal(got.Values, want.Values) {
			t.Fatalf("%s: labels differ from the fault-free run", mode)
		}
		if n := len(got.Recoveries); n == 0 || !got.Recoveries[n-1].Fallback {
			t.Fatalf("%s: recoveries %v, want a final fallback Migration", mode, got.Recoveries)
		}
	}
}

func runCC(t *testing.T, cfg core.Config, g *graph.Graph) *core.Result[int32] {
	t.Helper()
	cl, err := core.NewCluster[int32, int32](cfg, g, algorithms.NewCC())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}
