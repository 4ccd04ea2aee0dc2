package imitator

import "imitator/internal/core"

// Option mutates a job configuration being assembled by New.
//
// The option set is grouped into five families:
//
//   - Engine options shape the simulated cluster and execution engine:
//     WithMode, WithNodes, WithIterations, WithWorkers,
//     WithHostParallelism, WithPartitioner.
//   - FT options pin the fault-tolerance story: WithFTStrategy with the
//     typed constructors (Replication, Migration, Checkpoint,
//     LoggedRecovery, NoRecovery) and their sub-options, plus
//     WithMaxRebirths.
//   - Chaos options inject faults: WithFailures with the event builders
//     (Crash, CrashDuringRecovery, SlowLink, DelayBurst, Drop, Duplicate,
//     Reorder, Partition) and WithChaosSeed.
//   - Membership options pick the failure detector chaos crashes are
//     delivered through: WithMembership(Centralized|Gossip).
//   - Serve options turn the run into a long-lived queryable service:
//     WithServe and its sub-options (see serve.go).
type Option func(*Config)

// New assembles a Config from options on top of the engine defaults:
// edge-cut mode, 8 nodes, replication-based FT with K=1 and the selfish
// optimization, Rebirth recovery, 10 iterations, one worker per node.
// Options apply in order (later options win). The partitioner defaults to
// the mode's standard choice — hash for edge-cut, hybrid-cut for
// vertex-cut — unless WithPartitioner overrides it.
//
// New never fails; an impossible combination is reported by NewCluster /
// Run via Config.Validate.
func New(opts ...Option) Config {
	cfg := core.DefaultConfig(core.EdgeCutMode, 8)
	cfg.Partitioner = 0 // sentinel: resolve from final mode below
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Partitioner == 0 {
		cfg.Partitioner = core.DefaultConfig(cfg.Mode, cfg.NumNodes).Partitioner
	}
	return cfg
}

// ---- Engine options ---------------------------------------------------

// WithMode selects the execution engine: EdgeCutMode or VertexCutMode.
func WithMode(m Mode) Option {
	return func(c *Config) { c.Mode = m }
}

// WithNodes sets the simulated cluster size.
func WithNodes(n int) Option {
	return func(c *Config) { c.NumNodes = n }
}

// WithIterations caps the job at n supersteps.
func WithIterations(n int) Option {
	return func(c *Config) { c.MaxIter = n }
}

// WithWorkers sets the simulated worker-pool width of each node: a compute
// phase is charged as if its work ran on n workers (the cost model's Amdahl
// term), so simulated seconds change with n. It runs no extra goroutine, and
// vertex values and bytes are bit-for-bit identical for every n >= 1.
func WithWorkers(n int) Option {
	return func(c *Config) { c.WorkersPerNode = n }
}

// WithHostParallelism caps the real goroutines the engine uses to execute a
// run at n (0 = GOMAXPROCS); nodes run in parallel on at most n of them.
// This is pure host scheduling: unlike WithWorkers it never changes
// simulated widths, costs or results — the same run produces bit-identical
// output at every setting.
func WithHostParallelism(n int) Option {
	return func(c *Config) { c.HostParallelism = n }
}

// WithPartitioner overrides the mode's default graph partitioner.
func WithPartitioner(p Partitioner) Option {
	return func(c *Config) { c.Partitioner = p }
}

// ---- FT options -------------------------------------------------------
//
// The strategy constructors live in strategy.go; WithFTStrategy is the one
// entry point. The former piecemeal toggles (WithFT, WithoutFT,
// WithSelfishOpt, WithRecovery, WithCheckpoint) were removed in v1 — their
// replacements are Replication(ReplicationK(k), ReplicationSelfish(on)),
// NoRecovery(), and Checkpoint(interval, ...).

// WithMaxRebirths bounds how many standby rebirths the cluster can perform.
func WithMaxRebirths(n int) Option {
	return func(c *Config) { c.MaxRebirths = n }
}

// ---- Membership options ------------------------------------------------

// WithMembership selects the failure-detection protocol that delivers
// chaos crashes to the coordinator: Centralized (the default heartbeat
// monitor, bit-identical to prior releases) or Gossip (decentralized
// SWIM probing over a lossy datagram network that inherits the run's
// drop/partition chaos). Both feed the identical Suspect/MarkFailed
// path into rebirth, migration and serve-mode routing. Gossip probes
// through 3 indirect helpers and confirms a suspect after
// ceil(4*log10(n+1)) periods, at least 3.
func WithMembership(m Membership) Option {
	return func(c *Config) { c.Membership = core.MembershipConfig{Kind: m} }
}
