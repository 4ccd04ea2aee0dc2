// Package imitator is the public API of the replication-based
// fault-tolerant graph engine (Imitator, DSN'14). It wraps the internal
// engine behind a small stable surface: build a job configuration with
// New and functional options, load or construct a graph, and run a vertex
// program on the simulated cluster.
//
// Quickstart:
//
//	g := imitator.MustLoadDataset("gweb")
//	cfg := imitator.New(
//		imitator.WithNodes(8),
//		imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1))),
//		imitator.WithIterations(10),
//		imitator.WithFailures(
//			imitator.Crash(5, imitator.FailBeforeBarrier, 2),
//			imitator.CrashDuringRecovery(3),
//		),
//	)
//	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
//
// WithFTStrategy selects among the four fault-tolerance strategies —
// Replication (rebirth), Migration, Checkpoint, LoggedRecovery — each with
// typed sub-options; Result.Strategy reports their overheads uniformly.
//
// Long-lived serving (v1): add WithServe() and run the job through Serve /
// ServeOn to keep the graph resident and answer live reads — vertex
// values, top-K ranks, neighborhoods — from epoch-consistent snapshots
// while the engine executes and recovers:
//
//	srv, err := imitator.Serve(imitator.Workload{Algo: "pagerank", Dataset: "gweb", Iters: 10},
//		imitator.New(imitator.WithServe()))
//	ans, err := srv.Query(imitator.Query{Kind: imitator.QueryTopK, K: 10})
//
// Everything reachable from this package is supported API; callers never
// need to import imitator/internal/... directly.
package imitator

import (
	"imitator/internal/core"
	"imitator/internal/graph"
	"imitator/internal/metrics"
)

// Graph is an immutable directed weighted graph in CSR form.
type Graph = graph.Graph

// VertexID identifies a vertex; ids are dense in [0, NumVertices).
type VertexID = graph.VertexID

// Edge is one directed weighted edge.
type Edge = graph.Edge

// Program is the vertex-program interface (GAS-style): V is the vertex
// value type, A the accumulator type exchanged between presences.
type Program[V, A any] = core.Program[V, A]

// InEdges is the in-edge list that Program.Gather folds.
type InEdges[V any] = core.InEdges[V]

// Codec serializes values of type T onto the simulated wire.
type Codec[T any] = core.Codec[T]

// VertexInfo carries per-vertex topology facts into Program callbacks.
type VertexInfo = core.VertexInfo

// Cluster is a configured simulated cluster ready to Run one job.
type Cluster[V, A any] = core.Cluster[V, A]

// Result is a finished job's output: its typed vertex Values plus an
// embedded RunSummary, whose fields read as Result's own.
type Result[V any] = core.Result[V]

// Config is a fully-resolved job configuration. Build one with New; the
// zero value is not runnable.
type Config = core.Config

// TraceEvent is one entry of the simulated execution timeline.
type TraceEvent = core.TraceEvent

// RecoveryReport breaks one recovery down: strategy, trigger iteration,
// nodes lost, per-phase simulated seconds, and replayed traffic. A run's
// reports are in Result.Recoveries.
type RecoveryReport = core.RecoveryReport

// NodeMetrics is one node's (or the cluster-total) traffic/compute counters.
type NodeMetrics = metrics.Node

// Execution modes.
type Mode = core.Mode

const (
	EdgeCutMode   = core.EdgeCutMode   // Cyclops: vertices partitioned, edges at masters
	VertexCutMode = core.VertexCutMode // PowerLyra: edges partitioned, GAS execution
)

// Partitioner kinds. The zero value in New means "mode default"
// (PartHash for edge-cut, PartHybrid for vertex-cut).
type Partitioner = core.PartitionerKind

const (
	PartHash      = core.PartHash
	PartFennel    = core.PartFennel
	PartLDG       = core.PartLDG
	PartOblivious = core.PartOblivious
	PartRandom    = core.PartRandom
	PartGrid      = core.PartGrid
	PartHybrid    = core.PartHybrid
)

// Recovery strategies.
type Recovery = core.RecoveryKind

const (
	RecoverNone       = core.RecoverNone
	RecoverCheckpoint = core.RecoverCheckpoint
	RecoverRebirth    = core.RecoverRebirth
	RecoverMigration  = core.RecoverMigration
	RecoverLogged     = core.RecoverLogged
)

// StrategyStats is the uniform per-strategy accounting in Result.Strategy:
// superstep-end persistence work (snapshots and/or logs) and completed
// recovery passes, comparable across strategies.
type StrategyStats = core.StrategyStats

// Failure-injection phases.
type FailPhase = core.FailPhase

const (
	FailBeforeBarrier = core.FailBeforeBarrier
	FailAfterBarrier  = core.FailAfterBarrier
)

// Membership selects the failure-detection protocol (see WithMembership).
type Membership = core.MembershipKind

// Membership protocols.
const (
	// Centralized is the default heartbeat monitor: every node beats to a
	// central master (the paper's Zookeeper-style membership).
	Centralized = core.MembershipCentralized
	// Gossip is decentralized SWIM-style probing with piggybacked
	// dissemination, running over a lossy datagram network that inherits
	// the run's drop and partition chaos.
	Gossip = core.MembershipGossip
)

// Ready-made codecs for common value/accumulator types.
type (
	Float64Codec    = core.Float64Codec
	Int32Codec      = core.Int32Codec
	VecCodec        = core.VecCodec
	LabelCount      = core.LabelCount
	LabelCountCodec = core.LabelCountCodec
)

// NewCluster builds a simulated cluster for one job: it validates cfg,
// partitions g across the nodes, extends replication for fault tolerance,
// and instantiates prog on every node.
func NewCluster[V, A any](cfg Config, g *Graph, prog Program[V, A]) (*Cluster[V, A], error) {
	return core.NewCluster[V, A](cfg, g, prog)
}

// Run is the one-shot entrypoint: NewCluster + Cluster.Run.
func Run[V, A any](cfg Config, g *Graph, prog Program[V, A]) (*Result[V], error) {
	cl, err := core.NewCluster[V, A](cfg, g, prog)
	if err != nil {
		return nil, err
	}
	return cl.Run()
}
