package core

import (
	"errors"
	"fmt"
	"slices"
)

// ftStrategy is the pluggable fault-tolerance seam: everything the run loop
// needs from a recovery strategy, so cluster.go stays strategy-agnostic.
// One strategy is constructed per cluster (newFTStrategy) from
// Config.Recovery; all of them hold the cluster and drive the shared
// machinery (checkpoint writer, rebirth/migration passes, ftlog runtime)
// through it.
//
// Hook contract, in run-loop order:
//
//   - onLoad runs once at the end of load (step 10): persistence setup —
//     metadata snapshots, pristine retention, the epoch-0 data snapshot,
//     the log runtime.
//   - onSuperstepEnd runs after each commit with c.iter already advanced:
//     superstep-end persistence (periodic snapshots, superstep logs).
//   - onRollback runs after a failed iteration's rollback: discard any
//     persistence staged for the aborted iteration.
//   - recover handles one recovery pass over the failed set and returns
//     nodes that failed *during* the pass (the run loop restarts with the
//     union, §5.3.2).
type ftStrategy[V, A any] interface {
	Name() string
	onLoad()
	onSuperstepEnd()
	onRollback()
	recover(failed []int, iter int) ([]int, error)
}

// newFTStrategy builds the strategy selected by cfg.Recovery. Validate has
// already vetted the combination; the default arm is defensive.
func newFTStrategy[V, A any](c *Cluster[V, A]) (ftStrategy[V, A], error) {
	base := stratBase[V, A]{c: c}
	switch c.cfg.Recovery {
	case RecoverNone:
		return &noneStrategy[V, A]{base}, nil
	case RecoverCheckpoint:
		return &checkpointStrategy[V, A]{base}, nil
	case RecoverRebirth:
		return &rebirthStrategy[V, A]{base}, nil
	case RecoverMigration:
		return &migrationStrategy[V, A]{base}, nil
	case RecoverLogged:
		return &loggedStrategy[V, A]{base}, nil
	default:
		return nil, fmt.Errorf("%w: unknown recovery kind %v", ErrInvalidStrategy, c.cfg.Recovery)
	}
}

// validateStrategy is the one seam where FT-strategy combinations are
// vetted (Config.Validate calls it). Every rejection wraps
// ErrInvalidStrategy so callers branch on the class, not the message.
func validateStrategy(c *Config) error {
	if c.Checkpoint.Enabled {
		if c.Checkpoint.Interval < 1 {
			return fmt.Errorf("%w: checkpoint interval must be >= 1, got %d", ErrInvalidStrategy, c.Checkpoint.Interval)
		}
		if c.Checkpoint.FullEvery < 0 {
			return fmt.Errorf("%w: Checkpoint.FullEvery must be >= 0, got %d (0 means the default of 4)", ErrInvalidStrategy, c.Checkpoint.FullEvery)
		}
	}
	if c.Logged.Enabled && c.Logged.CompactEvery < 0 {
		return fmt.Errorf("%w: Logged.CompactEvery must be >= 0, got %d (0 never compacts)", ErrInvalidStrategy, c.Logged.CompactEvery)
	}
	switch c.Recovery {
	case RecoverNone:
		if len(c.Failures) > 0 || c.chaosHasCrash() {
			return fmt.Errorf("%w: failures scheduled but recovery disabled", ErrInvalidSchedule)
		}
	case RecoverCheckpoint:
		if !c.Checkpoint.Enabled {
			return fmt.Errorf("%w: checkpoint recovery needs Checkpoint.Enabled", ErrInvalidStrategy)
		}
	case RecoverRebirth, RecoverMigration:
		if !c.FT.Enabled {
			return fmt.Errorf("%w: %v recovery needs FT.Enabled", ErrInvalidStrategy, c.Recovery)
		}
	case RecoverLogged:
		if !c.Logged.Enabled {
			return fmt.Errorf("%w: logged recovery needs Logged.Enabled", ErrInvalidStrategy)
		}
	default:
		return fmt.Errorf("%w: unknown recovery kind %v", ErrInvalidStrategy, c.Recovery)
	}
	if c.RebirthFallback && !c.FT.Enabled {
		return fmt.Errorf("%w: RebirthFallback needs FT.Enabled (migration promotes mirrors)", ErrInvalidStrategy)
	}
	return nil
}

// stratBase carries the persistence hooks shared by every strategy: the
// periodic-checkpoint writer is keyed on Config.Checkpoint (snapshots can
// ride along with any recovery strategy, exactly as before the seam), and
// the superstep-log writer on Config.Logged.
type stratBase[V, A any] struct {
	c *Cluster[V, A]
}

func (s *stratBase[V, A]) onLoad() {
	c := s.c
	if c.cfg.Checkpoint.Enabled {
		c.retainPristine()
		c.writeCheckpointAt(0, false)
	}
	if c.cfg.Logged.Enabled {
		if c.pristine == nil {
			c.retainPristine()
		}
		c.flogInit()
	}
}

func (s *stratBase[V, A]) onSuperstepEnd() {
	c := s.c
	if c.cfg.Checkpoint.Enabled && c.iter%c.cfg.Checkpoint.Interval == 0 {
		c.writeCheckpoint()
	}
	if c.flog != nil {
		c.flogWrite()
	}
}

func (s *stratBase[V, A]) onRollback() {
	if s.c.flog != nil {
		s.c.flogRollback()
	}
}

// noneStrategy aborts the job on failure (baseline without FT).
type noneStrategy[V, A any] struct{ stratBase[V, A] }

func (s *noneStrategy[V, A]) Name() string { return "none" }

func (s *noneStrategy[V, A]) recover(failed []int, _ int) ([]int, error) {
	return nil, fmt.Errorf("%w: no recovery strategy configured (failed nodes %v)",
		ErrUnrecoverable, failed)
}

// checkpointStrategy is the paper's CKPT baseline: reload the last snapshot
// everywhere and replay the lost supersteps.
type checkpointStrategy[V, A any] struct{ stratBase[V, A] }

func (s *checkpointStrategy[V, A]) Name() string { return "checkpoint" }

func (s *checkpointStrategy[V, A]) recover(failed []int, _ int) ([]int, error) {
	return s.c.recoverCheckpoint(failed)
}

// rebirthStrategy is replication-based rebirth (§5.1), with the optional
// fall back to migration when the standby pool runs dry.
type rebirthStrategy[V, A any] struct{ stratBase[V, A] }

func (s *rebirthStrategy[V, A]) Name() string { return "rebirth" }

func (s *rebirthStrategy[V, A]) recover(failed []int, iter int) ([]int, error) {
	c := s.c
	more, err := c.recoverRebirth(failed, iter)
	if err != nil && c.cfg.RebirthFallback && errors.Is(err, ErrNoStandby) {
		// Standby pool is dry: migrate the lost slots onto the survivors
		// instead of failing the job (§5.2 as fallback).
		more, err = c.recoverMigration(failed, iter)
		if err == nil && len(more) == 0 && len(c.recoveries) > 0 {
			c.recoveries[len(c.recoveries)-1].Fallback = true
		}
	}
	return more, err
}

// migrationStrategy promotes mirrors on survivors (§5.2).
type migrationStrategy[V, A any] struct{ stratBase[V, A] }

func (s *migrationStrategy[V, A]) Name() string { return "migration" }

func (s *migrationStrategy[V, A]) recover(failed []int, iter int) ([]int, error) {
	return s.c.recoverMigration(failed, iter)
}

// loggedStrategy is log-based failure-confined recovery (after Yan, Cheng &
// Yang, arXiv:1601.06496): superstep-end logs feed a replay that touches
// only the reborn nodes, while survivors do zero recomputation.
type loggedStrategy[V, A any] struct{ stratBase[V, A] }

func (s *loggedStrategy[V, A]) Name() string { return "logged" }

func (s *loggedStrategy[V, A]) recover(failed []int, iter int) ([]int, error) {
	return s.c.recoverLogged(failed, iter)
}

// retainPristine snapshots each node's immutable post-load state and writes
// the per-node metadata snapshots; rebuilt newbies (checkpoint and logged
// recovery) start from these.
func (c *Cluster[V, A]) retainPristine() {
	c.pristine = make([]*pristineNode[V], c.cfg.NumNodes)
	for _, nd := range c.nodes {
		meta := c.encodeMetadataSnapshot(nd)
		c.loadSeconds += c.dfsWriteCost(nd, fmt.Sprintf("ckptmeta/%d", nd.id), meta)
		c.pristine[nd.id] = &pristineNode[V]{
			hot: slices.Clone(nd.hot), topo: slices.Clone(nd.topo), meta: slices.Clone(nd.meta),
			localEdges: nd.localEdges,
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
	// persistence work: checkpoint snapshots and/or superstep logs.
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

// strategyStats assembles the uniform stats from cluster state.
func (c *Cluster[V, A]) strategyStats() StrategyStats {
	st := StrategyStats{
		Kind:           c.strat.Name(),
		PersistSeconds: c.ckptSeconds,
		PersistCount:   c.ckptCount,
		PersistedBytes: c.ckptBytes,
	}
	if c.flog != nil {
		st.PersistSeconds += c.flog.writeSeconds
		st.PersistCount += c.flog.writes
		st.PersistedBytes += c.flog.bytes
		st.LogRecords = c.flog.records
	}
	for _, rec := range c.recoveries {
		st.Recoveries++
		st.RecoverySeconds += rec.TotalSeconds()
	}
	return st
}
