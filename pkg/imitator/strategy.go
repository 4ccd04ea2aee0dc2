package imitator

import "imitator/internal/core"

// FTStrategy is a fault-tolerance strategy selection for WithFTStrategy.
// Build one with the typed constructors — Replication, Migration,
// Checkpoint, LoggedRecovery, NoRecovery — and refine it with their
// functional sub-options. The strategy alone decides what the run persists:
// replicas under Replication and Migration, snapshots under Checkpoint, logs
// under LoggedRecovery, nothing under NoRecovery.
type FTStrategy func(*Config)

// WithFTStrategy selects how the cluster persists state and recovers from
// machine failures:
//
//	imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(2)))
//	imitator.WithFTStrategy(imitator.Checkpoint(4, imitator.CheckpointInMemory()))
//	imitator.WithFTStrategy(imitator.LoggedRecovery(imitator.LoggedCompactEvery(4)))
//
// Options apply in order, so a later WithFTStrategy replaces an earlier
// one; refine the replication layer with the strategy's own sub-options
// (ReplicationK, ReplicationSelfish, ...).
func WithFTStrategy(s FTStrategy) Option {
	return func(c *Config) { s(c) }
}

// ReplicationOption refines Replication or Migration.
type ReplicationOption func(*Config)

// Replication is the paper's replication-based FT with Rebirth recovery
// (§5.1): vertex replicas double as hot state, and a crashed node is rebuilt
// on a standby from the replicas scattered across the survivors.
func Replication(opts ...ReplicationOption) FTStrategy {
	return replication(core.RecoverRebirth, opts)
}

// Migration is replication-based FT with Migration recovery (§5.2): mirrors
// on the survivors are promoted to masters and the crashed node's workload
// scatters across the cluster — no standby machines needed.
func Migration(opts ...ReplicationOption) FTStrategy {
	return replication(core.RecoverMigration, opts)
}

func replication(kind core.RecoveryKind, opts []ReplicationOption) FTStrategy {
	return func(c *Config) {
		c.Recovery = kind
		for _, o := range opts {
			o(c)
		}
	}
}

// ReplicationK tolerates k simultaneous machine failures (the paper's K).
func ReplicationK(k int) ReplicationOption {
	return func(c *Config) { c.FT.K = k }
}

// ReplicationSelfish toggles the selfish-vertex optimization (§4.4).
func ReplicationSelfish(on bool) ReplicationOption {
	return func(c *Config) { c.FT.SelfishOpt = on }
}

// ReplicationFallback lets a Rebirth recovery that exhausts the standby pool
// fall back to Migration instead of failing the job.
func ReplicationFallback() ReplicationOption {
	return func(c *Config) { c.RebirthFallback = true }
}

// CheckpointOption refines Checkpoint.
type CheckpointOption func(*Config)

// Checkpoint is the checkpoint baseline (Imitator-CKPT): periodic snapshots
// to the DFS every interval iterations, and on failure the whole cluster
// reloads the last snapshot and re-executes the lost supersteps. The
// baseline runs replica-free.
func Checkpoint(interval int, opts ...CheckpointOption) FTStrategy {
	return func(c *Config) {
		c.Checkpoint = core.CheckpointConfig{Interval: interval}
		c.Recovery = core.RecoverCheckpoint
		for _, o := range opts {
			o(c)
		}
	}
}

// CheckpointInMemory snapshots to a memory-backed HDFS (Fig 7's CKPT-mem).
func CheckpointInMemory() CheckpointOption {
	return func(c *Config) { c.Checkpoint.InMemory = true }
}

// LoggedOption refines LoggedRecovery.
type LoggedOption func(*Config)

// LoggedRecovery is log-based failure-confined recovery (after Yan, Cheng &
// Yang, arXiv:1601.06496): every node logs its vertex-state deltas and
// received sync payloads at superstep end, and on failure only the reborn
// nodes replay their own log chains — survivors perform zero recomputation.
// Needs neither replicas nor cluster-wide snapshots, so it keeps neither.
func LoggedRecovery(opts ...LoggedOption) FTStrategy {
	return func(c *Config) {
		c.Logged = core.LoggedConfig{}
		c.Recovery = core.RecoverLogged
		for _, o := range opts {
			o(c)
		}
	}
}

// LoggedCompactEvery writes a full snapshot record every n supersteps in
// place of the delta log, bounding a reborn node's replay chain at n files
// (0 never compacts).
func LoggedCompactEvery(n int) LoggedOption {
	return func(c *Config) { c.Logged.CompactEvery = n }
}

// NoRecovery turns fault tolerance off entirely: no replicas, no snapshots,
// no logs, and any failure aborts the job (baseline runs).
func NoRecovery() FTStrategy {
	return func(c *Config) { c.Recovery = core.RecoverNone }
}
