package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
	"imitator/internal/rng"
)

// Campaign is a seeded randomized fault-injection run: Rounds rounds, each
// drawing a fault schedule from the round's own generator and checking
// that the recovered run converges to the fault-free result. Every round
// is a pure function of (Seed, round, mode), so a failure reproduces from
// its repro string alone.
//
// The zero value is not runnable; unset dimensions take the defaults
// below (a 6-node cluster on a 700-vertex synthetic graph, both
// partitioning modes, K=2).
type Campaign struct {
	Seed   uint64
	Rounds int

	Nodes    int         // cluster size (default 6)
	Iters    int         // supersteps per run (default 8)
	Vertices int         // synthetic graph size (default 700)
	Edges    int         // synthetic graph edges (default 4200)
	K        int         // replication factor (default 2)
	Modes    []core.Mode // partitioning modes (default both)
}

// Round scenarios, cycled by round number so every campaign of >= 5
// rounds exercises all five.
const (
	scenarioMultiCrash     = iota // one or two crash events, up to K nodes at once
	scenarioDuringRecovery        // a second failure while a recovery pass runs
	scenarioExhaustion            // empty standby pool forces Rebirth->Migration
	scenarioLossy                 // drop/dup/reorder omission faults riding a crash
	scenarioPartition             // partitioned node rebuilt by Rebirth, fenced on heal
	numScenarios
)

// campaignStrategies are the FT strategies the crash scenarios cycle
// through by round, so a campaign of >= 4*numScenarios rounds runs every
// scenario under every strategy. Exhaustion and partition stay pinned to
// Rebirth — their verdicts are about the standby pool and the epoch fence.
var campaignStrategies = []core.RecoveryKind{
	core.RecoverRebirth, core.RecoverMigration,
	core.RecoverCheckpoint, core.RecoverLogged,
}

// applyStrategy reconfigures the round's job for one recovery strategy,
// mirroring the pkg/imitator typed constructors: the strategy plus its own
// parameters.
func applyStrategy(cfg *core.Config, kind core.RecoveryKind) {
	cfg.Recovery = kind
	switch kind {
	case core.RecoverCheckpoint:
		cfg.Checkpoint = core.CheckpointConfig{Interval: 2}
	case core.RecoverLogged:
		cfg.Logged = core.LoggedConfig{CompactEvery: 3}
	}
}

// Report summarizes a finished campaign.
type Report struct {
	Rounds int // rounds requested
	Runs   int // individual cluster runs (rounds x modes)
	// DuringRecovery and Exhaustion count runs that exercised a
	// mid-recovery failure restart and a standby-exhaustion fallback;
	// Lossy counts runs whose reliable layer retransmitted through
	// omission faults, and Fenced counts runs where a healed partition's
	// stale-epoch frames hit the epoch fence.
	DuringRecovery int
	Exhaustion     int
	Lossy          int
	Fenced         int
	// Strategies counts runs per FT strategy name; crash scenarios cycle
	// through all four, so a long campaign covers the full matrix.
	Strategies map[string]int
	// Memberships counts rounds per failure-detector mode; rounds
	// alternate centralized and gossip, so both detectors carry every
	// scenario over a long campaign.
	Memberships map[string]int
	// Queries counts live serve-mode reads answered while rounds were still
	// executing their fault schedules; every one was validated against the
	// fault-free trajectory at its declared epoch. ReplicaReads counts the
	// answers served from an FT replica because the master was down.
	Queries      int
	ReplicaReads int
	// QueryDigest is an FNV-64a fold, in round order, of every live query
	// the rounds issued (kind, vertex, K) and whether it was answered: the
	// main stream and the recovery-window reads alike. It is a function of
	// the seed, so a query stream drawn from anything else changes it.
	QueryDigest uint64
	Failures    []RoundFailure
}

// RoundFailure is one failed round with a deterministic repro line.
type RoundFailure struct {
	Round int
	Mode  string
	Repro string
	Err   string
}

// Failed reports whether any round failed.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// normalized fills defaulted dimensions.
func (c Campaign) normalized() Campaign {
	if c.Rounds <= 0 {
		c.Rounds = 50
	}
	if c.Nodes <= 0 {
		c.Nodes = 6
	}
	if c.Iters <= 0 {
		c.Iters = 8
	}
	if c.Vertices <= 0 {
		c.Vertices = 700
	}
	if c.Edges <= 0 {
		c.Edges = 6 * c.Vertices
	}
	if c.K <= 0 {
		c.K = 2
	}
	if len(c.Modes) == 0 {
		c.Modes = []core.Mode{core.EdgeCutMode, core.VertexCutMode}
	}
	return c
}

// baseConfig is the fault-free job shared by a mode's rounds; per-round
// schedules only add Chaos events and recovery settings on top.
func (c Campaign) baseConfig(mode core.Mode) core.Config {
	cfg := core.DefaultConfig(mode, c.Nodes)
	cfg.MaxIter = c.Iters
	cfg.FT = core.FTConfig{K: c.K, SelfishOpt: true}
	cfg.MaxRebirths = 8
	return cfg
}

// Run executes the campaign and reports every failed round. The error is
// non-nil only for setup problems (an unrunnable base configuration);
// failed rounds are data, not errors.
func (c Campaign) Run() (*Report, error) {
	c = c.normalized()
	rep := &Report{Rounds: c.Rounds, Strategies: make(map[string]int), Memberships: make(map[string]int)}
	digest := fnv.New64a()
	g := datasets.Tiny(c.Vertices, c.Edges, rng.Hash64(c.Seed))
	// Fault-free baselines, one per mode: recovery settings and chaos
	// schedules must not change converged values, so one baseline serves
	// every round of the mode. The baseline runs with serve history on so
	// the rounds' live queries can be checked against the trajectory at
	// whatever epoch each answer declares.
	baselines := make([][]float64, len(c.Modes))
	truths := make([]map[int][]float64, len(c.Modes))
	for i, mode := range c.Modes {
		cfg := c.baseConfig(mode)
		cfg.Recovery = core.RecoverRebirth
		baseline, truth, err := runBaseline(cfg, g)
		if err != nil {
			return nil, fmt.Errorf("chaos: fault-free baseline (%v): %w", mode, err)
		}
		baselines[i], truths[i] = baseline, truth
	}
	for round := 0; round < c.Rounds; round++ {
		for i, mode := range c.Modes {
			rep.Runs++
			out := c.runRound(round, mode, g, baselines[i], truths[i])
			rep.DuringRecovery += out.duringRecovery
			rep.Exhaustion += out.exhaustion
			rep.Lossy += out.lossy
			rep.Fenced += out.fenced
			rep.Queries += out.queries
			rep.ReplicaReads += out.replicaReads
			digest.Write(binary.LittleEndian.AppendUint64(nil, out.digest))
			rep.Strategies[out.ft]++
			rep.Memberships[out.mem]++
			if out.err != nil {
				rep.Failures = append(rep.Failures, RoundFailure{
					Round: round, Mode: mode.String(),
					Repro: out.repro, Err: out.err.Error(),
				})
			}
		}
	}
	rep.QueryDigest = digest.Sum64()
	return rep, nil
}

// roundOutcome is one (round, mode) run's verdict.
type roundOutcome struct {
	repro          string
	ft             string
	mem            string
	err            error
	duringRecovery int
	exhaustion     int
	lossy          int
	fenced         int
	queries        int
	replicaReads   int
	digest         uint64 // FNV-64a of the round's live queries (digestQuery)
}

// runRound generates round's schedule from its seed and runs it against
// the baseline, serving a seeded stream of live queries while the fault
// schedule plays out. g, baseline and truth must come from the same
// campaign dimensions (Replay re-derives all three).
func (c Campaign) runRound(round int, mode core.Mode, g *coreGraph, baseline []float64, truth map[int][]float64) roundOutcome {
	r := rng.New(c.Seed ^ rng.Hash2(uint64(round), uint64(mode)+1))
	scenario := round % numScenarios
	strat := campaignStrategies[(round/numScenarios)%len(campaignStrategies)]
	cfg := c.baseConfig(mode)
	// Alternate the failure detector by round: odd rounds deliver every
	// crash and partition through SWIM gossip instead of the centralized
	// monitor. numScenarios is odd, so both detectors cycle through every
	// scenario. Replay re-derives the mode from the round number; the
	// repro line carries it for the reader only.
	if round%2 == 1 {
		cfg.Membership = core.MembershipConfig{Kind: core.MembershipGossip}
	}

	victims := r.Perm(c.Nodes)
	crashIter := 1 + r.Intn(c.Iters-2)
	var sched Schedule
	migrationInvolved := false
	switch scenario {
	case scenarioMultiCrash:
		applyStrategy(&cfg, strat)
		n := 1 + r.Intn(c.K)
		sched = append(sched, core.ChaosEvent{
			Kind: core.ChaosCrash, Iteration: crashIter,
			Phase: pickPhase(r), Nodes: sortedInts(victims[:n]),
		})
		// Sometimes a second, sequential crash after the first recovery
		// completed (FT repair restored K by then).
		if r.Intn(2) == 0 && crashIter+1 < c.Iters-1 {
			iter2 := crashIter + 1 + r.Intn(c.Iters-1-crashIter-1)
			sched = append(sched, core.ChaosEvent{
				Kind: core.ChaosCrash, Iteration: iter2,
				Phase: pickPhase(r), Nodes: victims[n : n+1],
			})
		}
		migrationInvolved = cfg.Recovery == core.RecoverMigration
	case scenarioDuringRecovery:
		applyStrategy(&cfg, strat)
		labels := core.RecoveryPhaseLabels(cfg.Recovery)
		sched = append(sched,
			core.ChaosEvent{
				Kind: core.ChaosCrash, Iteration: crashIter,
				Phase: pickPhase(r), Nodes: victims[:1],
			},
			core.ChaosEvent{
				Kind:   core.ChaosCrashDuringRecovery,
				During: labels[r.Intn(len(labels))], Nodes: victims[1:2],
			},
		)
		migrationInvolved = cfg.Recovery == core.RecoverMigration
	case scenarioExhaustion:
		cfg.Recovery = core.RecoverRebirth
		cfg.MaxRebirths = 0
		cfg.RebirthFallback = true
		n := 1 + r.Intn(c.K)
		sched = append(sched, core.ChaosEvent{
			Kind: core.ChaosCrash, Iteration: crashIter,
			Phase: pickPhase(r), Nodes: sortedInts(victims[:n]),
		})
		migrationInvolved = true // fallback completes as a migration
	case scenarioLossy:
		applyStrategy(&cfg, strat)
		cfg.ChaosSeed = r.Uint64()
		// Soak a handful of distinct links in omission faults from
		// iteration 1, then crash a node on top: the reliable layer must
		// carry both steady-state and recovery traffic through the loss.
		kinds := []core.ChaosKind{core.ChaosDrop, core.ChaosDuplicate, core.ChaosReorder}
		for i, n := 0, 2+r.Intn(3); i < n; i++ {
			kind := kinds[r.Intn(len(kinds))]
			limit := 1.0
			if kind == core.ChaosDrop {
				limit = core.MaxDropRate
			}
			sched = append(sched, core.ChaosEvent{
				Kind: kind, Iteration: 1,
				From: victims[i%c.Nodes], To: victims[(i+1)%c.Nodes],
				Prob: limit * (0.2 + 0.3*r.Float64()),
			})
		}
		sched = append(sched, core.ChaosEvent{
			Kind: core.ChaosCrash, Iteration: crashIter,
			Phase: pickPhase(r), Nodes: victims[:1],
		})
		migrationInvolved = cfg.Recovery == core.RecoverMigration
	case scenarioPartition:
		// A partitioned-but-alive node is indistinguishable from a crashed
		// one to the survivors: Rebirth rebuilds its slot under a bumped
		// epoch, and the heal must release only fenced stale frames.
		cfg.Recovery = core.RecoverRebirth
		cfg.ChaosSeed = r.Uint64()
		healIter := crashIter + 1 + r.Intn(c.Iters-1-crashIter)
		sched = append(sched, core.ChaosEvent{
			Kind: core.ChaosPartition, Iteration: crashIter,
			HealIter: healIter, Nodes: victims[:1],
		})
	}
	// Degradation riders: they may reshape timing, never values.
	if r.Intn(2) == 0 {
		sched = append(sched, core.ChaosEvent{
			Kind: core.ChaosSlowLink, Iteration: 1 + r.Intn(c.Iters-2),
			From: victims[c.Nodes-2], To: victims[c.Nodes-1],
			Factor: float64(int(2) << r.Intn(3)),
		})
	}
	if r.Intn(3) == 0 {
		sched = append(sched, core.ChaosEvent{
			Kind: core.ChaosDelayBurst, Iteration: 1 + r.Intn(c.Iters-2),
			Seconds: 0.05 * float64(1+r.Intn(5)),
		})
	}
	cfg.Chaos = sched
	cfg.Serve = core.ServeConfig{Enabled: true}
	// Odd rounds disable the selfish-vertices optimization so FT replicas
	// stay synced: recovery-window reads on a dead master's vertices are
	// then served from replicas instead of honestly refused. Strategies
	// without replicas never read the switch.
	if round%2 == 1 {
		cfg.FT.SelfishOpt = false
	}
	// Draw the query seeds after the schedule is complete so the schedule
	// streams stay identical to a query-free campaign.
	qr := rng.New(r.Uint64())
	hr := rng.New(r.Uint64())

	out := roundOutcome{
		ft:  cfg.Recovery.String(),
		mem: cfg.Membership.Kind.String(),
		repro: fmt.Sprintf("chaos seed=%d round=%d mode=%s ft=%s mem=%s sched=%s",
			c.Seed, round, mode, cfg.Recovery, cfg.Membership.Kind, FormatEvents(sched)),
	}
	// Vertex-cut migrations merge gather partials in a recovered order;
	// everything else must be bit-identical to the fault-free run.
	tol := 0.0
	if mode == core.VertexCutMode && migrationInvolved {
		tol = 1e-9
	}
	cl, err := newPageRank(cfg, g)
	if err != nil {
		out.err = err
		return out
	}
	// Pin one read inside every recovery window: the hook fires between
	// recovery phases, exactly where serving must keep answering while the
	// engine rebuilds the failed node.
	type liveRead struct {
		q   core.Query
		ans core.Answer
		err error
	}
	var hookReads []liveRead
	cl.SetRecoveryHook(func(phase string) {
		q := core.Query{Kind: core.QueryValue, Vertex: graph.VertexID(hr.Intn(len(baseline)))}
		ans, err := cl.Query(q)
		hookReads = append(hookReads, liveRead{q, ans, err})
	})
	// Run the fault schedule in the background and serve a deterministic
	// query stream against the live cluster: reads land before, during and
	// after the crash/partition windows, and every answer must match the
	// fault-free trajectory at the epoch it declares.
	done := make(chan struct{})
	var res *core.Result[float64]
	var runErr error
	go func() {
		defer close(done)
		res, runErr = cl.Run()
	}()
	qh := fnv.New64a()
	for i := 0; i < roundQueries; i++ {
		q := core.Query{Kind: core.QueryValue, Vertex: graph.VertexID(qr.Intn(len(baseline)))}
		if i%8 == 7 {
			q = core.Query{Kind: core.QueryTopK, K: 5}
		}
		ans, qerr := cl.Query(q)
		digestQuery(qh, q, qerr == nil)
		if qerr != nil {
			// An honest refusal — the master is down and its replicas are
			// selfish or dead — is allowed; a wrong answer is not.
			if errors.Is(qerr, core.ErrVertexUnavailable) {
				continue
			}
			out.err = fmt.Errorf("live query %d: %w", i, qerr)
			break
		}
		if verr := checkLiveAnswer(ans, truth, tol); verr != nil {
			out.err = fmt.Errorf("live query %d: %w", i, verr)
			break
		}
		out.queries++
		if ans.FromReplica {
			out.replicaReads++
		}
	}
	<-done
	// hookReads is written only on the engine goroutine; the done channel
	// orders it before these reads.
	for _, rd := range hookReads {
		digestQuery(qh, rd.q, rd.err == nil)
	}
	out.digest = qh.Sum64()
	if runErr != nil {
		out.err = runErr
		return out
	}
	if out.err != nil {
		return out
	}
	for i, rd := range hookReads {
		if rd.err != nil {
			if errors.Is(rd.err, core.ErrVertexUnavailable) {
				continue
			}
			out.err = fmt.Errorf("recovery-window query %d: %w", i, rd.err)
			return out
		}
		if verr := checkLiveAnswer(rd.ans, truth, tol); verr != nil {
			out.err = fmt.Errorf("recovery-window query %d: %w", i, verr)
			return out
		}
		out.queries++
		if rd.ans.FromReplica {
			out.replicaReads++
		}
	}
	if err := valuesMatch(res.Values, baseline, tol); err != nil {
		out.err = err
		return out
	}
	if len(res.Recoveries) == 0 {
		out.err = fmt.Errorf("no recovery reported")
		return out
	}
	switch scenario {
	case scenarioDuringRecovery:
		last := res.Recoveries[len(res.Recoveries)-1]
		if len(last.Failed) < 2 {
			out.err = fmt.Errorf("restarted recovery covered %v, want both victims", last.Failed)
			return out
		}
		out.duringRecovery = 1
	case scenarioExhaustion:
		first := res.Recoveries[0]
		if first.Kind != "migration" || !first.Fallback {
			out.err = fmt.Errorf("recovery was %s (fallback=%v), want migration fallback",
				first.Kind, first.Fallback)
			return out
		}
		out.exhaustion = 1
	case scenarioLossy:
		if res.Omission == nil {
			out.err = fmt.Errorf("omission schedule reported no omission stats")
			return out
		}
		if res.Omission.Retransmits+res.Omission.DuplicatesDropped+res.Omission.Reordered == 0 {
			out.err = fmt.Errorf("omission faults drew no fates: %+v", *res.Omission)
			return out
		}
		out.lossy = 1
	case scenarioPartition:
		if res.Omission == nil {
			out.err = fmt.Errorf("partition reported no omission stats")
			return out
		}
		if res.Omission.Fenced == 0 {
			out.err = fmt.Errorf("healed partition fenced no stale-epoch frames: %+v", *res.Omission)
			return out
		}
		out.fenced = 1
	}
	// Every round crashes or partitions at least one node, so the
	// configured detector must have confirmed at least one failure.
	if res.Membership == nil {
		out.err = fmt.Errorf("round with failures reported no membership stats")
		return out
	}
	if res.Membership.Mode != cfg.Membership.Kind.String() {
		out.err = fmt.Errorf("membership ran %q, configured %q", res.Membership.Mode, cfg.Membership.Kind)
		return out
	}
	if len(res.Membership.DetectionSeconds) == 0 {
		out.err = fmt.Errorf("%s detector confirmed no failures", res.Membership.Mode)
		return out
	}
	return out
}

// Replay re-runs the single round identified by a repro line emitted in a
// RoundFailure, against this campaign's dimensions, and returns that
// round's error (nil if it now passes). Only seed, round and mode are read
// from the line — the schedule regenerates deterministically from them.
func (c Campaign) Replay(repro string) error {
	c = c.normalized()
	var (
		haveSeed, haveRound, haveMode bool
		round                         int
		mode                          core.Mode
	)
	for _, tok := range strings.Fields(repro) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			continue
		}
		switch key {
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("%w: bad repro seed %q", core.ErrInvalidSchedule, val)
			}
			c.Seed = s
			haveSeed = true
		case "round":
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("%w: bad repro round %q", core.ErrInvalidSchedule, val)
			}
			round = n
			haveRound = true
		case "mode":
			switch val {
			case core.EdgeCutMode.String():
				mode = core.EdgeCutMode
			case core.VertexCutMode.String():
				mode = core.VertexCutMode
			default:
				return fmt.Errorf("%w: bad repro mode %q", core.ErrInvalidSchedule, val)
			}
			haveMode = true
		}
	}
	if !haveSeed || !haveRound || !haveMode {
		return fmt.Errorf("%w: repro needs seed=, round= and mode=", core.ErrInvalidSchedule)
	}
	g := datasets.Tiny(c.Vertices, c.Edges, rng.Hash64(c.Seed))
	cfg := c.baseConfig(mode)
	cfg.Recovery = core.RecoverRebirth
	baseline, truth, err := runBaseline(cfg, g)
	if err != nil {
		return err
	}
	return c.runRound(round, mode, g, baseline, truth).err
}

// coreGraph aliases the graph type to keep signatures short here.
type coreGraph = graph.Graph

// roundQueries is the fixed number of live queries issued per round. The
// stream is a pure function of the round seed; only the epoch each answer
// observes depends on where the run happens to be when the read lands.
const roundQueries = 48

// digestQuery folds one issued live query into h: its kind, vertex and K,
// and whether it was answered.
func digestQuery(h hash.Hash64, q core.Query, answered bool) {
	var b [18]byte
	b[0] = byte(q.Kind)
	binary.LittleEndian.PutUint64(b[1:], uint64(q.Vertex))
	binary.LittleEndian.PutUint64(b[9:], uint64(q.K))
	if answered {
		b[17] = 1
	}
	h.Write(b[:])
}

// newPageRank builds one PageRank cluster.
func newPageRank(cfg core.Config, g *coreGraph) (*core.Cluster[float64, float64], error) {
	return core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
}

// runBaseline runs the fault-free job with serve history retained and
// returns the converged values plus the per-epoch trajectory that the
// rounds' live answers are validated against.
func runBaseline(cfg core.Config, g *coreGraph) ([]float64, map[int][]float64, error) {
	cfg.Serve = core.ServeConfig{Enabled: true, KeepHistory: true}
	cl, err := newPageRank(cfg, g)
	if err != nil {
		return nil, nil, err
	}
	res, err := cl.Run()
	if err != nil {
		return nil, nil, err
	}
	truth := make(map[int][]float64)
	for _, e := range cl.PublishedEpochs() {
		truth[e] = cl.EpochValues(e)
	}
	return res.Values, truth, nil
}

// checkLiveAnswer validates one mid-run answer against the fault-free
// trajectory at the epoch the answer declares: the snapshot must be a
// committed superstep (never a torn one), at most one epoch behind the
// frontier, and its values must match the baseline's at that epoch.
func checkLiveAnswer(ans core.Answer, truth map[int][]float64, tol float64) error {
	if s := ans.Staleness(); s < 0 || s > 1 {
		return fmt.Errorf("staleness %d outside [0, 1] (epoch %d, frontier %d)",
			s, ans.Epoch, ans.Frontier)
	}
	want, ok := truth[ans.Epoch]
	if !ok {
		return fmt.Errorf("answer epoch %d was never committed by the fault-free run", ans.Epoch)
	}
	switch ans.Kind {
	case core.QueryValue:
		if int(ans.Vertex) >= len(want) {
			return fmt.Errorf("vertex %d outside baseline (%d vertices)", ans.Vertex, len(want))
		}
		if err := valueMatch(ans.Value, want[ans.Vertex], tol); err != nil {
			return fmt.Errorf("vertex %d at epoch %d: %w", ans.Vertex, ans.Epoch, err)
		}
	case core.QueryTopK:
		for i, e := range ans.TopK {
			if int(e.Vertex) >= len(want) {
				return fmt.Errorf("top-k vertex %d outside baseline (%d vertices)", e.Vertex, len(want))
			}
			if err := valueMatch(e.Value, want[e.Vertex], tol); err != nil {
				return fmt.Errorf("top-k entry %d (vertex %d) at epoch %d: %w", i, e.Vertex, ans.Epoch, err)
			}
			if i > 0 && ans.TopK[i-1].Value < e.Value-tol*(1+math.Abs(e.Value)) {
				return fmt.Errorf("top-k not descending at entry %d: %v < %v",
					i, ans.TopK[i-1].Value, e.Value)
			}
		}
	}
	return nil
}

// pickPhase draws a crash phase.
func pickPhase(r *rng.Source) core.FailPhase {
	if r.Intn(2) == 0 {
		return core.FailBeforeBarrier
	}
	return core.FailAfterBarrier
}

// sortedInts returns a sorted copy (crash node lists read nicer ordered).
func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// valuesMatch compares a recovered run's values to the fault-free
// baseline: exact when tol is zero, else relative with criterion
// |got-want| <= tol*(1+|want|).
func valuesMatch(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("value count %d != baseline %d", len(got), len(want))
	}
	for v := range want {
		if err := valueMatch(got[v], want[v], tol); err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
	}
	return nil
}

// valueMatch compares one value against its baseline under valuesMatch's
// criterion.
func valueMatch(got, want, tol float64) error {
	if tol == 0 {
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			return fmt.Errorf("%v != baseline %v (exact)", got, want)
		}
		return nil
	}
	if math.Abs(got-want) > tol*(1+math.Abs(want)) {
		return fmt.Errorf("%v != baseline %v (tol %g)", got, want, tol)
	}
	return nil
}
