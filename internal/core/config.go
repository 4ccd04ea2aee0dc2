package core

import (
	"fmt"
	"strings"

	"imitator/internal/costmodel"
	"imitator/internal/hostpar"
	"imitator/internal/partition"
)

// Mode selects the engine's partitioning family.
type Mode int

// Engine modes.
const (
	EdgeCutMode   Mode = iota + 1 // Cyclops: vertices partitioned, edges at masters
	VertexCutMode                 // PowerLyra: edges partitioned, GAS execution
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case EdgeCutMode:
		return "edge-cut"
	case VertexCutMode:
		return "vertex-cut"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// PartitionerKind names a partitioning algorithm.
type PartitionerKind int

// Partitioners. Hash, Fennel and LDG are edge-cuts; Random, Grid, Hybrid
// and Oblivious are vertex-cuts.
const (
	PartHash PartitionerKind = iota + 1
	PartFennel
	PartLDG
	PartRandom
	PartGrid
	PartHybrid
	PartOblivious
)

// String implements fmt.Stringer.
func (p PartitionerKind) String() string {
	switch p {
	case PartHash:
		return "hash"
	case PartFennel:
		return "fennel"
	case PartLDG:
		return "ldg"
	case PartRandom:
		return "random"
	case PartGrid:
		return "grid"
	case PartHybrid:
		return "hybrid"
	case PartOblivious:
		return "oblivious"
	default:
		return fmt.Sprintf("partitioner(%d)", int(p))
	}
}

// RecoveryKind selects what happens when machines fail.
type RecoveryKind int

// Recovery strategies.
const (
	// RecoverNone aborts the job on failure (baseline without FT).
	RecoverNone RecoveryKind = iota + 1
	// RecoverCheckpoint reloads the last DFS snapshot on a standby node and
	// replays lost iterations (the paper's CKPT baseline).
	RecoverCheckpoint
	// RecoverRebirth reconstructs the crashed node's state on a standby
	// node from replicas on all surviving nodes (§5.1).
	RecoverRebirth
	// RecoverMigration promotes mirrors on surviving nodes to masters and
	// scatters the crashed node's workload across the cluster (§5.2).
	RecoverMigration
	// RecoverLogged is log-based failure-confined recovery (after Yan, Cheng
	// & Yang, arXiv:1601.06496): every node logs its touched-vertex deltas
	// and received sync payloads at superstep end, and on failure only the
	// reborn nodes replay their own log chains — survivors perform zero
	// recomputation.
	RecoverLogged
)

// String implements fmt.Stringer.
func (r RecoveryKind) String() string {
	switch r {
	case RecoverNone:
		return "none"
	case RecoverCheckpoint:
		return "checkpoint"
	case RecoverRebirth:
		return "rebirth"
	case RecoverMigration:
		return "migration"
	case RecoverLogged:
		return "logged"
	default:
		return fmt.Sprintf("recovery(%d)", int(r))
	}
}

// MirrorPlacement selects the mirror-assignment policy.
type MirrorPlacement int

// Mirror placement policies.
const (
	// MirrorBalanced is the paper's greedy assignment: each master picks
	// the replica whose host has the fewest mirrors so far (§4.2). This is
	// the default (zero value).
	MirrorBalanced MirrorPlacement = iota
	// MirrorFirst naively picks the first replicas in host order — the
	// ablation baseline showing why balance matters for recovery
	// scalability.
	MirrorFirst
)

// FTConfig tunes the replication-based fault-tolerance layer, which exists
// only under RecoverRebirth and RecoverMigration.
type FTConfig struct {
	// K is the number of simultaneous machine failures to tolerate; every
	// vertex gets at least K replicas and K mirrors (§5.3.1).
	K int
	// SelfishOpt enables the §4.4 selfish-vertex optimization when the
	// program supports recomputation.
	SelfishOpt bool
	// MirrorPlacement selects balanced (default) or naive placement.
	MirrorPlacement MirrorPlacement
}

// CheckpointConfig tunes the periodic DFS snapshots of the checkpoint
// baseline (Imitator-CKPT, RecoverCheckpoint).
type CheckpointConfig struct {
	// Interval is the number of iterations between snapshots (>= 1).
	Interval int
	// InMemory models checkpointing to a memory-backed HDFS: storage
	// bandwidth becomes the network bandwidth instead of disk (Fig 7's
	// CKPT-mem variant).
	InMemory bool
}

// LoggedConfig tunes the superstep-end logs behind RecoverLogged: per-node
// touched-master deltas plus received sync payloads, persisted to the DFS.
type LoggedConfig struct {
	// CompactEvery writes a full snapshot record every N supersteps in place
	// of the delta log, bounding a reborn node's replay chain at N files.
	// 0 never compacts (chains grow with the run).
	CompactEvery int
}

// MaxDropRate caps ChaosDrop probabilities: the reliable layer
// retransmits every loss, so the expected tries per frame are 1/(1-p)
// and rates near 1 would effectively sever the link forever.
const MaxDropRate = 0.9

// FailPhase says when within an iteration a failure strikes.
type FailPhase int

// Failure phases, relative to iteration Iteration's global barrier.
const (
	// FailBeforeBarrier kills the node mid-computation: survivors roll the
	// iteration back and re-execute it after recovery (Algorithm 1 line 8).
	FailBeforeBarrier FailPhase = iota + 1
	// FailAfterBarrier kills the node after commit: no rollback needed
	// (Algorithm 1 line 17).
	FailAfterBarrier
)

// ChaosKind enumerates the typed events of a chaos schedule.
type ChaosKind int

// Chaos event kinds.
const (
	// ChaosCrash fail-stops Nodes at Iteration/Phase: they go silent, the
	// configured failure detector (Config.Membership) notices on the
	// simulated clock, and the failure surfaces at the next global barrier.
	ChaosCrash ChaosKind = iota + 1
	// ChaosCrashDuringRecovery fail-stops Nodes when a recovery pass
	// reaches the phase whose label starts with During ("" = the first
	// phase of whatever recovery runs). Fires at most once. During must be
	// a prefix of some RecoveryPhaseLabels entry.
	ChaosCrashDuringRecovery
	// ChaosSlowLink multiplies the From->To link's transfer cost by Factor
	// from Iteration onwards (netsim degradation).
	ChaosSlowLink
	// ChaosDelayBurst adds Seconds to every messaging round of one
	// execution attempt of Iteration.
	ChaosDelayBurst
	// ChaosDrop makes the From->To link lose each frame with probability
	// Prob from Iteration onwards. The reliable-delivery layer
	// retransmits until the frame traverses, charging every retry and
	// its backoff through the cost model: results are unchanged, the
	// run gets slower and heavier.
	ChaosDrop
	// ChaosDuplicate makes the From->To link deliver each frame twice
	// with probability Prob; the receiver deduplicates by sequence
	// number.
	ChaosDuplicate
	// ChaosReorder makes the From->To link hold each frame back past its
	// successor with probability Prob; the receiver restores FIFO order.
	ChaosReorder
	// ChaosPartition cuts Nodes off from the rest of the cluster at
	// Iteration: frames on severed links are parked in the cable, the
	// isolated nodes are suspected, confirmed failed, and recovered like
	// a crash, and at HealIter the parked frames are released — to be
	// fenced by the membership epochs the recovery bumped (split-brain
	// safety).
	ChaosPartition
)

// String implements fmt.Stringer.
func (k ChaosKind) String() string {
	switch k {
	case ChaosCrash:
		return "crash"
	case ChaosCrashDuringRecovery:
		return "crash-during-recovery"
	case ChaosSlowLink:
		return "slow-link"
	case ChaosDelayBurst:
		return "delay-burst"
	case ChaosDrop:
		return "drop"
	case ChaosDuplicate:
		return "duplicate"
	case ChaosReorder:
		return "reorder"
	case ChaosPartition:
		return "partition"
	default:
		return fmt.Sprintf("chaos(%d)", int(k))
	}
}

// ChaosEvent is one typed entry of a chaos schedule (Config.Chaos). Only
// the fields relevant to Kind are read; see the ChaosKind constants.
type ChaosEvent struct {
	Kind      ChaosKind
	Iteration int       // ChaosCrash, ChaosSlowLink, ChaosDelayBurst, omission kinds
	Phase     FailPhase // ChaosCrash
	Nodes     []int     // ChaosCrash, ChaosCrashDuringRecovery, ChaosPartition
	During    string    // ChaosCrashDuringRecovery: phase-label prefix
	From, To  int       // ChaosSlowLink / ChaosDrop / ChaosDuplicate / ChaosReorder endpoints
	Factor    float64   // ChaosSlowLink multiplier (>= 1)
	Seconds   float64   // ChaosDelayBurst extra round seconds
	Prob      float64   // ChaosDrop/Duplicate/Reorder per-frame probability
	HealIter  int       // ChaosPartition heal iteration (> Iteration; >= MaxIter never heals)
}

// MembershipKind selects the failure-detection protocol behind chaos
// crash delivery.
type MembershipKind int

// Membership protocols.
const (
	// MembershipCentralized (default) models the paper's Zookeeper-style
	// heartbeat master: every survivor beats each Cost.HeartbeatInterval,
	// so a crashed node is suspected after SuspectBeats missed intervals
	// and confirmed after DetectMissedBeats (Cost.DetectionTime()).
	MembershipCentralized MembershipKind = iota
	// MembershipGossip detects failures with the decentralized SWIM
	// protocol in internal/gossip: randomized ping / ping-req(k) probing
	// with piggybacked dissemination over its own lossy datagram network,
	// which inherits the run's drop and partition chaos. Suspicions and
	// confirmations feed the same coordinator Suspect/MarkFailed path.
	MembershipGossip
)

// String implements fmt.Stringer.
func (m MembershipKind) String() string {
	switch m {
	case MembershipCentralized:
		return "centralized"
	case MembershipGossip:
		return "gossip"
	default:
		return fmt.Sprintf("membership(%d)", int(m))
	}
}

// MembershipConfig selects the failure detector. The zero value is the
// centralized heartbeat monitor. Gossip runs SWIM with k = 3 indirect
// probes and a suspicion timeout of ceil(4*log10(n+1)) periods, at least 3.
type MembershipConfig struct {
	// Kind picks the protocol.
	Kind MembershipKind
}

// Config describes one job.
type Config struct {
	NumNodes    int
	Mode        Mode
	Partitioner PartitionerKind

	// Recovery is the one fault-tolerance switch: it selects the recovery
	// pass and the state that feeds it. FT is read only under Rebirth and
	// Migration, Checkpoint only under Checkpoint, Logged only under Logged.
	Recovery   RecoveryKind
	FT         FTConfig
	Checkpoint CheckpointConfig
	Logged     LoggedConfig

	// MaxIter is the number of supersteps to run.
	MaxIter int
	// MaxRebirths bounds the standby pool for Rebirth/Checkpoint recovery.
	MaxRebirths int
	// RebirthFallback lets a Rebirth recovery that exhausts the standby
	// pool fall back to Migration (scattering the lost slots over the
	// survivors) instead of failing the job with ErrNoStandby. Requires a
	// replicating Recovery.
	RebirthFallback bool
	// WorkersPerNode is the width of each node's simulated worker pool, a
	// cost-model input only: the compute phases (edge-cut compute,
	// vertex-cut gather and apply, Rebirth placement) count their work in
	// this many contiguous chunks of the node's work list, and
	// costmodel.ComputeTime charges the phase by the total and the busiest
	// chunk, so it changes simulated seconds. The chunks run in order on the
	// node's own goroutine, so every byte stream and vertex value is
	// identical for any width, and no width adds a goroutine. Must be >= 1;
	// DefaultConfig sets 1 (the paper's serial engine).
	WorkersPerNode int
	// HostParallelism caps the real goroutines the engine uses: the
	// node-level phase pool runs min(NumNodes, HostParallelism) of them, and
	// loading shards by it. 0 (the default) means runtime.GOMAXPROCS(0). It
	// has no effect on any simulated result: sim_seconds and every byte
	// stream are identical for all values.
	HostParallelism int

	// Serve enables the epoch-consistent live-query layer (see serve.go):
	// committed snapshots published per superstep, answered from masters or
	// FT replicas with bounded staleness. Host-side only — simulated
	// results are bit-identical with serving on or off.
	Serve ServeConfig

	// Membership selects the failure detector chaos crashes are delivered
	// through: the centralized heartbeat monitor (default) or SWIM gossip.
	Membership MembershipConfig

	Cost costmodel.Params
	// Chaos is the typed fault schedule the run loop evaluates: crashes
	// (delivered via heartbeat detection), crashes during recovery,
	// netsim degradation events and omission faults (drop / duplicate /
	// reorder / partition). Empty schedules cost nothing.
	Chaos []ChaosEvent
	// ChaosSeed seeds the omission layer's per-link fate RNGs. The same
	// schedule with the same seed replays bit-for-bit; different seeds
	// draw different loss patterns from the same probabilities.
	ChaosSeed uint64
}

// Validate checks the configuration for contradictions.
func (c *Config) Validate() error {
	if c.NumNodes < 1 || c.NumNodes > partition.MaxNodes {
		return fmt.Errorf("core: NumNodes %d outside [1, %d]", c.NumNodes, partition.MaxNodes)
	}
	if c.MaxIter < 1 {
		return fmt.Errorf("core: MaxIter must be >= 1, got %d", c.MaxIter)
	}
	if c.WorkersPerNode < 1 {
		return fmt.Errorf("core: WorkersPerNode must be >= 1, got %d (1 is the paper's serial engine)", c.WorkersPerNode)
	}
	if c.HostParallelism < 0 {
		return fmt.Errorf("core: HostParallelism must be >= 0, got %d (0 uses GOMAXPROCS)", c.HostParallelism)
	}
	// NumNodes*WorkersPerNode is the simulated worker count per phase, not
	// a goroutine count; a product beyond any plausible cluster is almost
	// certainly a mistake, so reject it.
	if c.NumNodes*c.WorkersPerNode > maxSimTasks {
		return fmt.Errorf("core: NumNodes (%d) x WorkersPerNode (%d) = %d simulated workers per phase exceeds %d; this is almost certainly a mistake",
			c.NumNodes, c.WorkersPerNode, c.NumNodes*c.WorkersPerNode, maxSimTasks)
	}
	if c.MaxRebirths < 0 {
		return fmt.Errorf("core: MaxRebirths must be >= 0, got %d", c.MaxRebirths)
	}
	switch c.Mode {
	case EdgeCutMode:
		switch c.Partitioner {
		case PartHash, PartFennel, PartLDG:
		default:
			return fmt.Errorf("core: edge-cut mode needs hash/fennel/ldg, got %v", c.Partitioner)
		}
	case VertexCutMode:
		switch c.Partitioner {
		case PartRandom, PartGrid, PartHybrid, PartOblivious:
		default:
			return fmt.Errorf("core: vertex-cut mode needs random/grid/hybrid/oblivious, got %v", c.Partitioner)
		}
	default:
		return fmt.Errorf("core: unknown mode %v", c.Mode)
	}
	if err := validateStrategy(c); err != nil {
		return err
	}
	switch c.Membership.Kind {
	case MembershipCentralized, MembershipGossip:
	default:
		return fmt.Errorf("core: unknown membership kind %d (use MembershipCentralized or MembershipGossip)", int(c.Membership.Kind))
	}
	if c.Membership.Kind == MembershipGossip && c.NumNodes < 2 {
		return fmt.Errorf("core: gossip membership needs at least 2 nodes, got %d", c.NumNodes)
	}
	for _, ev := range c.Chaos {
		if err := c.validateChaosEvent(ev); err != nil {
			return err
		}
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	return nil
}

// chaosHasCrash reports whether the chaos schedule contains events that
// cost a node (partitions confirm the isolated set failed, so they need
// a recovery strategy like any crash).
func (c *Config) chaosHasCrash() bool {
	for _, ev := range c.Chaos {
		switch ev.Kind {
		case ChaosCrash, ChaosCrashDuringRecovery, ChaosPartition:
			return true
		}
	}
	return false
}

// ChaosHasOmission reports whether the schedule contains omission-fault
// events; only then is the netsim omission layer installed, keeping the
// reliable path at zero cost.
func (c *Config) ChaosHasOmission() bool {
	for _, ev := range c.Chaos {
		switch ev.Kind {
		case ChaosDrop, ChaosDuplicate, ChaosReorder, ChaosPartition:
			return true
		}
	}
	return false
}

// validateNodes checks a crash event's target list.
func (c *Config) validateNodes(nodes []int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("%w: failure with no nodes", ErrInvalidSchedule)
	}
	for _, n := range nodes {
		if n < 0 || n >= c.NumNodes {
			return fmt.Errorf("%w: failure node %d outside cluster", ErrInvalidSchedule, n)
		}
	}
	return nil
}

// validateChaosEvent checks one schedule entry against the job config.
func (c *Config) validateChaosEvent(ev ChaosEvent) error {
	switch ev.Kind {
	case ChaosCrash:
		if ev.Iteration < 0 || ev.Iteration >= c.MaxIter {
			return fmt.Errorf("%w: crash iteration %d outside [0, %d)", ErrInvalidSchedule, ev.Iteration, c.MaxIter)
		}
		if ev.Phase != FailBeforeBarrier && ev.Phase != FailAfterBarrier {
			return fmt.Errorf("%w: crash needs a phase", ErrInvalidSchedule)
		}
		return c.validateNodes(ev.Nodes)
	case ChaosCrashDuringRecovery:
		// Any strategy's labels qualify: RebirthFallback reaches migration
		// labels from a rebirth config.
		for _, kind := range []RecoveryKind{RecoverRebirth, RecoverMigration, RecoverCheckpoint, RecoverLogged} {
			for _, label := range RecoveryPhaseLabels(kind) {
				if strings.HasPrefix(label, ev.During) {
					return c.validateNodes(ev.Nodes)
				}
			}
		}
		return fmt.Errorf("%w: crash-during-recovery label %q is a prefix of no recovery phase label, so the event could never fire", ErrInvalidSchedule, ev.During)
	case ChaosSlowLink:
		if ev.Iteration < 0 || ev.Iteration >= c.MaxIter {
			return fmt.Errorf("%w: slow-link iteration %d outside [0, %d)", ErrInvalidSchedule, ev.Iteration, c.MaxIter)
		}
		if ev.From < 0 || ev.From >= c.NumNodes || ev.To < 0 || ev.To >= c.NumNodes || ev.From == ev.To {
			return fmt.Errorf("%w: slow-link endpoints %d->%d invalid", ErrInvalidSchedule, ev.From, ev.To)
		}
		if ev.Factor < 1 {
			return fmt.Errorf("%w: slow-link factor %g below 1", ErrInvalidSchedule, ev.Factor)
		}
		return nil
	case ChaosDelayBurst:
		if ev.Iteration < 0 || ev.Iteration >= c.MaxIter {
			return fmt.Errorf("%w: delay-burst iteration %d outside [0, %d)", ErrInvalidSchedule, ev.Iteration, c.MaxIter)
		}
		if ev.Seconds < 0 {
			return fmt.Errorf("%w: delay-burst seconds %g negative", ErrInvalidSchedule, ev.Seconds)
		}
		return nil
	case ChaosDrop, ChaosDuplicate, ChaosReorder:
		if ev.Iteration < 0 || ev.Iteration >= c.MaxIter {
			return fmt.Errorf("%w: %v iteration %d outside [0, %d)", ErrInvalidSchedule, ev.Kind, ev.Iteration, c.MaxIter)
		}
		if ev.From < 0 || ev.From >= c.NumNodes || ev.To < 0 || ev.To >= c.NumNodes || ev.From == ev.To {
			return fmt.Errorf("%w: %v endpoints %d->%d invalid", ErrInvalidSchedule, ev.Kind, ev.From, ev.To)
		}
		limit := 1.0
		if ev.Kind == ChaosDrop {
			// Retransmission terminates in expectation 1/(1-p) tries; cap
			// the rate so schedules cannot starve a link.
			limit = MaxDropRate
		}
		if ev.Prob < 0 || ev.Prob > limit {
			return fmt.Errorf("%w: %v probability %g outside [0, %g]", ErrInvalidSchedule, ev.Kind, ev.Prob, limit)
		}
		return nil
	case ChaosPartition:
		if ev.Iteration < 0 || ev.Iteration >= c.MaxIter {
			return fmt.Errorf("%w: partition iteration %d outside [0, %d)", ErrInvalidSchedule, ev.Iteration, c.MaxIter)
		}
		if err := c.validateNodes(ev.Nodes); err != nil {
			return err
		}
		if len(ev.Nodes) >= c.NumNodes {
			return fmt.Errorf("%w: partition must leave at least one node on the majority side", ErrInvalidSchedule)
		}
		if ev.HealIter <= ev.Iteration {
			return fmt.Errorf("%w: partition heal iteration %d must be after start %d (use >= MaxIter for a partition that never heals)", ErrInvalidSchedule, ev.HealIter, ev.Iteration)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown chaos kind %v", ErrInvalidSchedule, ev.Kind)
	}
}

// maxSimTasks bounds NumNodes*WorkersPerNode, the simulated worker count.
// 16384 comfortably covers the paper's 50-node cluster at hundreds of
// simulated workers per node while catching runaway configurations.
const maxSimTasks = 16384

// hostParallelism resolves the effective host goroutine cap.
func (c *Config) hostParallelism() int {
	if c.HostParallelism > 0 {
		return c.HostParallelism
	}
	return hostpar.Limit()
}

// DefaultConfig returns a ready-to-run configuration for the given mode.
func DefaultConfig(mode Mode, numNodes int) Config {
	cfg := Config{
		NumNodes:       numNodes,
		Mode:           mode,
		Recovery:       RecoverRebirth,
		FT:             FTConfig{K: 1, SelfishOpt: true},
		MaxIter:        10,
		MaxRebirths:    4,
		WorkersPerNode: 1,
		Cost:           costmodel.Default(),
	}
	if mode == EdgeCutMode {
		cfg.Partitioner = PartHash
	} else {
		cfg.Partitioner = PartHybrid
	}
	return cfg
}
