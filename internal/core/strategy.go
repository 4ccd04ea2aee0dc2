package core

import (
	"errors"
	"fmt"
	"slices"
)

// persistLoad is load step 10, the persistence setup of the configured
// recovery: metadata snapshots, pristine retention and the epoch-0 data
// snapshot under Checkpoint, the log runtime under Logged. Each recovery
// persists only what its own pass reads; the replication recoveries persist
// nothing here.
func (c *Cluster[V, A]) persistLoad() {
	switch c.cfg.Recovery {
	case RecoverCheckpoint:
		c.retainPristine()
		c.writeCheckpointAt(0, false)
	case RecoverLogged:
		c.retainPristine()
		c.flogInit()
	}
}

// persistSuperstep runs after each commit with c.iter already advanced:
// periodic snapshots under Checkpoint, the superstep log under Logged.
func (c *Cluster[V, A]) persistSuperstep() {
	switch c.cfg.Recovery {
	case RecoverCheckpoint:
		if c.iter%c.cfg.Checkpoint.Interval == 0 {
			c.writeCheckpoint()
		}
	case RecoverLogged:
		c.flogWrite()
	}
}

// validateStrategy is the one seam where the FT strategy is vetted
// (Config.Validate calls it): only the selected strategy's parameters are
// read. Every rejection but the crash-without-recovery schedule wraps
// ErrInvalidStrategy so callers branch on the class, not the message.
func validateStrategy(c *Config) error {
	switch c.Recovery {
	case RecoverNone:
		if c.chaosHasCrash() {
			return fmt.Errorf("%w: failures scheduled but recovery disabled", ErrInvalidSchedule)
		}
	case RecoverCheckpoint:
		if c.Checkpoint.Interval < 1 {
			return fmt.Errorf("%w: checkpoint interval must be >= 1, got %d", ErrInvalidStrategy, c.Checkpoint.Interval)
		}
	case RecoverRebirth, RecoverMigration:
		if c.FT.K < 1 || c.FT.K >= c.NumNodes {
			return fmt.Errorf("%w: FT.K must be in [1, NumNodes %d), got %d", ErrInvalidStrategy, c.NumNodes, c.FT.K)
		}
		if c.FT.MirrorPlacement != MirrorBalanced && c.FT.MirrorPlacement != MirrorFirst {
			return fmt.Errorf("%w: unknown mirror placement %d", ErrInvalidStrategy, int(c.FT.MirrorPlacement))
		}
	case RecoverLogged:
		if c.Logged.CompactEvery < 0 {
			return fmt.Errorf("%w: Logged.CompactEvery must be >= 0, got %d (0 never compacts)", ErrInvalidStrategy, c.Logged.CompactEvery)
		}
	default:
		return fmt.Errorf("%w: unknown recovery kind %v", ErrInvalidStrategy, c.Recovery)
	}
	if c.RebirthFallback && !c.replicates() {
		return fmt.Errorf("%w: RebirthFallback needs rebirth or migration recovery (migration promotes mirrors)", ErrInvalidStrategy)
	}
	return nil
}

// replicates reports whether the run keeps replication state — FT replicas,
// mirrors, vertex-cut edge-ckpt files and the selfish optimization — which
// only the replication recoveries read.
func (c *Config) replicates() bool {
	return c.Recovery == RecoverRebirth || c.Recovery == RecoverMigration
}

// RecoveryPhaseLabels returns the phase labels a recovery pass of the given
// kind announces, in the order it reaches them (nil for kinds that recover
// nothing). This is the one table of them: a pass reads its labels from here,
// schedule validation checks ChaosCrashDuringRecovery.During against it, the
// chaos campaign draws its during-recovery targets from it, and SetRecoveryHook
// observers see exactly these strings.
func RecoveryPhaseLabels(kind RecoveryKind) []string {
	switch kind {
	case RecoverRebirth:
		return []string{"rebirth:join", "rebirth:reload", "rebirth:reconstruct"}
	case RecoverMigration:
		return []string{"migration:promote", "migration:moved", "migration:edges", "migration:replicas", "migration:repair"}
	case RecoverCheckpoint:
		return []string{"checkpoint:join", "checkpoint:reload"}
	case RecoverLogged:
		return []string{"logged:join", "logged:replay"}
	default:
		return nil
	}
}

// recoveryPass is one attempt to recover a failed set: the state the frame
// shares with the phase bodies (recoverRebirth, recoverMigration,
// recoverCheckpoint, recoverLogged), which call hook and barrier where their
// phases end.
type recoveryPass[V, A any] struct {
	c         *Cluster[V, A]
	iter      int
	failed    []int
	failedSet []bool // by node id
	rec       RecoveryReport
	// labels are the kind's phase labels not yet announced.
	labels []string
	// slotStart is when the open RecoveryReport seconds slot began.
	slotStart float64
}

// passInterrupted is what recoveryPass.barrier returns to unwind a phase body
// when more nodes failed during the pass; recoverPass turns it into the restart
// set and it never leaves the frame.
type passInterrupted struct{ failed []int }

func (e passInterrupted) Error() string {
	return fmt.Sprintf("core: recovery pass interrupted by the failure of nodes %v", e.failed)
}

// recoverPass is the one frame around every recovery pass: it runs one pass
// of kind over the failed set. The frame owns what all kinds repeat — the
// standby pool, the newbie join sequence, the phase boundaries (recoveryPass),
// the RecoveryReport and its trace span; a kind contributes its phase bodies
// and, when it rebuilds the failed slots on standby nodes, the builder of
// slot f's replacement node (none for migration, which promotes mirrors on
// survivors, §5.2). A completed pass appends its RecoveryReport and
// "recovery" trace span; a pass interrupted by further failures returns them
// (§5.3.2) and leaves no record.
func (c *Cluster[V, A]) recoverPass(kind RecoveryKind, failed []int, iter int) ([]int, error) {
	var newbie func(p *recoveryPass[V, A], f int) (*node[V, A], error)
	var body func(p *recoveryPass[V, A]) error
	switch kind {
	case RecoverCheckpoint:
		// The paper's CKPT baseline: reload the last snapshot everywhere and
		// replay the lost supersteps.
		newbie, body = c.pristineNewbie, c.recoverCheckpoint
	case RecoverRebirth:
		newbie, body = c.rebirthNewbie, c.recoverRebirth
	case RecoverMigration:
		body = c.recoverMigration
	case RecoverLogged:
		// Log-based failure-confined recovery (after Yan, Cheng & Yang,
		// arXiv:1601.06496): superstep-end logs feed a replay that touches
		// only the reborn nodes, while survivors do zero recomputation.
		newbie, body = c.pristineNewbie, c.recoverLogged
	default:
		return nil, fmt.Errorf("%w: no recovery strategy configured (failed nodes %v)",
			ErrUnrecoverable, failed)
	}
	if newbie != nil && c.rebirthsUsed+len(failed) > c.cfg.MaxRebirths {
		return nil, fmt.Errorf("%w: %d standby nodes exhausted", ErrNoStandby, c.cfg.MaxRebirths)
	}
	start := c.clock.Now()
	p := &recoveryPass[V, A]{
		c: c, iter: iter, failed: failed, failedSet: make([]bool, c.cfg.NumNodes),
		rec:       RecoveryReport{Kind: kind.String(), Iteration: iter, Failed: append([]int(nil), failed...)},
		labels:    RecoveryPhaseLabels(kind),
		slotStart: start,
	}
	for _, f := range failed {
		p.failedSet[f] = true
	}
	msgs0, bytes0 := c.met.RecoveryTraffic()
	if newbie != nil {
		for _, f := range failed {
			nd, err := newbie(p, f)
			if err != nil {
				return nil, err
			}
			c.nodes[f] = nd
			c.net.SetFailed(f, false)
			c.coord.Join(f)
			// The newbie is a fresh incarnation of the slot: stamp its bumped
			// epoch into the network so traffic of the previous life — e.g. a
			// partitioned-but-alive predecessor whose frames are still parked
			// in the cable — is fenced instead of reaching the new state.
			c.net.SetEpoch(f, c.coord.Epoch(f))
			c.chaosTrack(f)
			c.rebirthsUsed++
		}
	}
	if err := body(p); err != nil {
		if stop := (passInterrupted{}); errors.As(err, &stop) {
			return stop.failed, nil
		}
		return nil, err
	}
	msgs1, bytes1 := c.met.RecoveryTraffic()
	p.rec.Msgs, p.rec.Bytes = msgs1-msgs0, bytes1-bytes0
	c.refreshMemoryMetrics()
	c.recoveries = append(c.recoveries, p.rec)
	c.emit(TraceRecovery, iter, start)
	return nil, nil
}

// hook announces the pass's next phase label: chaos crash-during-recovery
// events keyed on it fire first, then the SetRecoveryHook observer.
func (p *recoveryPass[V, A]) hook() {
	label := p.labels[0]
	p.labels = p.labels[1:]
	if p.c.chaos != nil {
		p.c.chaosRecoveryPhase(label)
	}
	if p.c.testHook != nil {
		p.c.testHook(label)
	}
}

// barrier ends a phase at a global barrier, where nodes that failed during
// the phase surface: the body unwinds with passInterrupted and recoverPass
// restarts the pass with the union. Otherwise the simulated time since the
// open seconds slot began lands in slot and the next slot opens; a boundary
// that closes no slot passes nil.
func (p *recoveryPass[V, A]) barrier(slot *float64) error {
	state, err := p.c.barrier()
	if err != nil {
		return err
	}
	if state.IsFail() {
		return passInterrupted{state.Failed}
	}
	if slot != nil {
		now := p.c.clock.Now()
		*slot = now - p.slotStart
		p.slotStart = now
	}
	return nil
}

// retainPristine keeps each node's post-load state and writes the per-node
// metadata snapshots; rebuilt newbies (checkpoint and logged recovery) start
// from these. The pristine node holds a copy of hot, which supersteps write,
// and shares the rest: under these two recoveries nothing changes the
// topology, ref, the role slabs or the arenas after load (only the
// replication recoveries reshape them).
func (c *Cluster[V, A]) retainPristine() {
	c.pristine = make([]*node[V, A], c.cfg.NumNodes)
	for _, nd := range c.nodes {
		meta := c.encodeMetadataSnapshot(nd) // exactly sized; the DFS keeps it
		c.loadSeconds += c.dfsWriteCost(nd, fmt.Sprintf("ckptmeta/%d", nd.id), meta)
		c.pristine[nd.id] = &node[V, A]{
			id: nd.id, hot: slices.Clone(nd.hot), csr: nd.csr, ref: nd.ref,
			masters: nd.masters, mirrors: nd.mirrors, tables: nd.tables, edges: nd.edges,
		}
	}
}

// StrategyStats is the uniform per-strategy accounting every FT strategy
// reports through Result.Strategy, so callers compare overheads without
// knowing which strategy ran.
type StrategyStats struct {
	// Kind names the configured strategy ("none", "checkpoint", "rebirth",
	// "migration", "logged").
	Kind string
	// PersistSeconds/PersistCount/PersistedBytes total the superstep-end
	// persistence work: checkpoint snapshots or superstep logs.
	PersistSeconds float64
	PersistCount   int
	PersistedBytes int64
	// LogRecords counts the delta and message records the log writer
	// persisted (logged strategy only).
	LogRecords int64
	// Recoveries/RecoverySeconds total the completed recovery passes.
	Recoveries      int
	RecoverySeconds float64
}
