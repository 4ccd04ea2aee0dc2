package core

import (
	"fmt"

	"imitator/internal/metrics"
	"imitator/internal/netsim"
)

// TraceEvent is one timeline entry in simulated seconds (Fig 12's x-axis).
type TraceEvent struct {
	Iter  int
	Kind  string // "iteration", "checkpoint", "ftlog", "recovery"
	Start float64
	End   float64
}

// Duration returns the event's span.
func (e TraceEvent) Duration() float64 { return e.End - e.Start }

// RecoveryReport breaks one recovery down the way Fig 2c / Fig 9 do:
// what kind of recovery ran, what triggered it, how long each phase took
// in simulated seconds, and how much state moved to repair the cluster.
type RecoveryReport struct {
	Kind      string // "checkpoint", "rebirth", "migration", "logged"
	Iteration int    // superstep being (re-)executed after recovery
	Failed    []int

	// Fallback marks a Rebirth that ran out of standby nodes and completed
	// as a Migration instead (Config.RebirthFallback).
	Fallback bool

	ReloadSeconds      float64
	ReconstructSeconds float64
	ReplaySeconds      float64

	// ReplayIters counts re-executed supersteps (checkpoint recovery; the
	// replication strategies replay activation only and logged recovery
	// replays logs without re-executing, so this is 0 for them).
	ReplayIters int

	// LogReplaySupersteps counts the log files the slowest reborn node
	// replayed (logged recovery only). Survivors replay nothing.
	LogReplaySupersteps int

	RecoveredVertices int
	RecoveredEdges    int

	// Msgs/Bytes count the recovery traffic the completed pass put on the
	// simulated wire (internal/metrics recovery counters).
	Msgs  int64
	Bytes int64
}

// TotalSeconds is the full recovery duration.
func (r RecoveryReport) TotalSeconds() float64 {
	return r.ReloadSeconds + r.ReconstructSeconds + r.ReplaySeconds
}

// String implements fmt.Stringer.
func (r RecoveryReport) String() string {
	kind := r.Kind
	if r.Fallback {
		kind = "rebirth->" + kind
	}
	return fmt.Sprintf("%s@%d failed=%v total=%.3fs (reload %.3f, reconstruct %.3f, replay %.3f) vertices=%d edges=%d bytes=%d",
		kind, r.Iteration, r.Failed, r.TotalSeconds(),
		r.ReloadSeconds, r.ReconstructSeconds, r.ReplaySeconds,
		r.RecoveredVertices, r.RecoveredEdges, r.Bytes)
}

// Result is a finished job's output and accounting.
type Result[V any] struct {
	// Values holds the final vertex values, indexed by vertex id.
	Values []V
	// Iterations completed.
	Iterations int

	// SimSeconds is the simulated wall-clock of the whole run;
	// AvgIterSeconds averages over failure-free iterations.
	SimSeconds     float64
	AvgIterSeconds float64
	LoadSeconds    float64

	// Strategy is the configured FT strategy's uniform accounting:
	// superstep-end persistence work and completed recovery passes.
	Strategy StrategyStats

	// Replication stats for Figs 3/8/10/14.
	ExtraReplicas        int // FT-only replicas added at load
	ExtraReplicasSelfish int // of which for selfish vertices (§4.4)
	TotalPresences       int // masters + all replicas after FT extension

	Metrics     metrics.Node // cluster-wide totals
	MaxMemory   int64        // largest per-node footprint, bytes
	TotalMemory int64

	// Buffers is the wire-buffer pool traffic for the whole run: a reuse
	// fraction near 1 means the steady-state loop ran allocation-free.
	Buffers metrics.Buffers

	Trace []TraceEvent
	// Recoveries reports every completed recovery, in order; chaos
	// assertions and cmd/bench read these instead of scraping logs.
	Recoveries []RecoveryReport

	// Omission is the omission-fault layer's wire activity (retransmits,
	// dedup hits, fenced stale-epoch frames, ...), nil for runs whose
	// schedule contained no omission events.
	Omission *OmissionStats

	// Serve is the live-query layer's accounting, nil unless
	// Config.Serve.Enabled.
	Serve *metrics.Serve

	// Membership is the failure detector's accounting (per-failure
	// detection latency, false suspicions, gossip traffic), nil for runs
	// whose chaos schedule never exercised the detector.
	Membership *metrics.Membership
}

// OmissionStats re-exports the netsim omission counters at the engine's
// public seam, so pkg/imitator does not reach into the transport layers.
type OmissionStats = netsim.OmissionStats

// result assembles the Result from the cluster state after Run.
func (c *Cluster[V, A]) result() *Result[V] {
	res := &Result[V]{
		Values:               make([]V, c.g.NumVertices()),
		Iterations:           c.iter,
		SimSeconds:           c.clock.Now(),
		LoadSeconds:          c.loadSeconds,
		Strategy:             c.strategyStats(),
		ExtraReplicas:        c.extraReplicas,
		ExtraReplicasSelfish: c.extraReplicasSelfish,
		TotalPresences:       c.totalPresences,
		Trace:                append([]TraceEvent(nil), c.trace...),
		Recoveries:           append([]RecoveryReport(nil), c.recoveries...),
	}
	for _, nd := range c.aliveNodes() {
		for i := range nd.hot {
			if e := &nd.hot[i]; e.isMaster() {
				res.Values[e.id] = e.value
			}
		}
	}
	c.refreshMemoryMetrics()
	ps := c.pool.Stats()
	res.Buffers = metrics.Buffers{Gets: ps.Gets, Misses: ps.Misses, Puts: ps.Puts}
	res.Metrics = c.met.Total()
	res.MaxMemory = c.met.MaxMemoryNode()
	res.TotalMemory = res.Metrics.MemoryBytes

	var iterTotal float64
	iters := 0
	for _, ev := range c.trace {
		if ev.Kind == "iteration" {
			iterTotal += ev.Duration()
			iters++
		}
	}
	if iters > 0 {
		res.AvgIterSeconds = iterTotal / float64(iters)
	}
	if stats, ok := c.net.OmissionStats(); ok {
		res.Omission = &stats
	}
	res.Serve = c.ServeStats()
	if c.chaos != nil && c.chaos.det != nil {
		res.Membership = c.chaos.det.membership()
	}
	return res
}

// ReplicationFactor returns total presences divided by vertex count, after
// FT extension (Fig 10a / Fig 14a).
func (c *Cluster[V, A]) ReplicationFactor() float64 {
	if c.g.NumVertices() == 0 {
		return 0
	}
	return float64(c.totalPresences) / float64(c.g.NumVertices())
}
