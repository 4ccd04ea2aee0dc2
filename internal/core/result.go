package core

import (
	"fmt"

	"imitator/internal/metrics"
	"imitator/internal/netsim"
)

// TraceKind names what a timeline span covers.
type TraceKind uint8

const (
	TraceIteration  TraceKind = iota // one committed superstep
	TraceCheckpoint                  // a superstep-end snapshot
	TraceFTLog                       // a superstep-end log write
	TraceRecovery                    // one completed recovery pass
)

var traceKindNames = [...]string{"iteration", "checkpoint", "ftlog", "recovery"}

// String implements fmt.Stringer with the timeline's lane labels.
func (k TraceKind) String() string { return traceKindNames[k] }

// MarshalText makes a kind encode as its label (e.g. in JSON reports).
func (k TraceKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// TraceEvent is one timeline span in simulated seconds (Fig 12's x-axis).
// The run's timeline is the one record of when things happened: the time
// figures of its RunSummary are folds over it.
type TraceEvent struct {
	Iter  int
	Kind  TraceKind
	Start float64
	End   float64
}

// Duration returns the event's span.
func (e TraceEvent) Duration() float64 { return e.End - e.Start }

// emit closes a timeline span of kind that opened at start.
func (c *Cluster[V, A]) emit(kind TraceKind, iter int, start float64) {
	c.trace = append(c.trace, TraceEvent{Iter: iter, Kind: kind, Start: start, End: c.clock.Now()})
}

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

// RunSummary is everything a finished job reports except its typed vertex
// values.
type RunSummary struct {
	// Iterations completed.
	Iterations int

	// SimSeconds is the simulated wall-clock of the whole run;
	// AvgIterSeconds averages over failure-free iterations.
	SimSeconds     float64
	AvgIterSeconds float64
	LoadSeconds    float64

	// Replication stats for Figs 3/8/10/14.
	ExtraReplicas        int     // FT-only replicas added at load
	ExtraReplicasSelfish int     // of which for selfish vertices (§4.4)
	TotalPresences       int     // masters + all replicas after FT extension
	ReplicationFactor    float64 // TotalPresences per vertex

	MaxMemory   int64        // largest per-node footprint, bytes
	TotalMemory int64        // all nodes' footprints, bytes
	Metrics     metrics.Node // cluster-wide totals

	// Strategy is the configured FT strategy's uniform accounting:
	// superstep-end persistence work and completed recovery passes.
	Strategy StrategyStats
	// Recoveries reports every completed recovery, in order; chaos
	// assertions and cmd/bench read these instead of scraping logs.
	Recoveries []RecoveryReport
	Trace      []TraceEvent

	NumVertices int
	NumEdges    int

	// Buffers is the wire-buffer pool traffic for the whole run: a reuse
	// fraction near 1 means the steady-state loop ran allocation-free.
	Buffers metrics.Buffers

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

// Result is a finished job's output: its vertex values and its RunSummary,
// whose fields read as Result's own.
type Result[V any] struct {
	// Values holds the final vertex values, indexed by vertex id.
	Values []V
	// SimSeconds repeats RunSummary.SimSeconds as a field of its own, so
	// a Result literal can still set it.
	SimSeconds float64
	RunSummary
}

// OmissionStats re-exports the netsim omission counters at the engine's
// public seam, so pkg/imitator does not reach into the transport layers.
type OmissionStats = netsim.OmissionStats

// result assembles the Result from the cluster state after Run.
func (c *Cluster[V, A]) result() *Result[V] {
	c.refreshMemoryMetrics()
	ps := c.pool.Stats()
	res := &Result[V]{
		Values:     make([]V, c.g.NumVertices()),
		SimSeconds: c.clock.Now(),
		RunSummary: RunSummary{
			Iterations:           c.iter,
			SimSeconds:           c.clock.Now(),
			LoadSeconds:          c.loadSeconds,
			ExtraReplicas:        c.extraReplicas,
			ExtraReplicasSelfish: c.extraReplicasSelfish,
			TotalPresences:       c.totalPresences,
			ReplicationFactor:    c.ReplicationFactor(),
			MaxMemory:            c.met.MaxMemoryNode(),
			Metrics:              c.met.Total(),
			Strategy: StrategyStats{
				Kind:           c.cfg.Recovery.String(),
				PersistSeconds: c.persistSeconds,
				PersistedBytes: c.persistBytes,
			},
			Recoveries:  append([]RecoveryReport(nil), c.recoveries...),
			Trace:       append([]TraceEvent(nil), c.trace...),
			NumVertices: c.g.NumVertices(),
			NumEdges:    c.g.NumEdges(),
			Buffers:     metrics.Buffers{Gets: ps.Gets, Misses: ps.Misses, Puts: ps.Puts},
			Serve:       c.ServeStats(),
		},
	}
	res.TotalMemory = res.Metrics.MemoryBytes
	if c.flog != nil {
		res.Strategy.LogRecords = c.flog.records
	}
	if stats, ok := c.net.OmissionStats(); ok {
		res.Omission = &stats
	}
	if c.chaos != nil && c.chaos.det != nil {
		res.Membership = c.chaos.det.membership()
	}
	for _, nd := range c.aliveNodes() {
		for i := range nd.hot {
			if e := &nd.hot[i]; e.isMaster() {
				res.Values[e.id] = e.value
			}
		}
	}
	res.foldTimeline()
	return res
}

// foldTimeline derives the summary's time figures from its timeline in one
// pass: the average iteration, the persist count and each checkpoint
// recovery's replay time, then the recovery totals. The k-th recovery span
// closes the k-th RecoveryReport. A checkpoint recovery's replay ends with
// the first iteration span that commits the superstep it was recovering
// (Iter+1 >= Iteration+ReplayIters); a later checkpoint recovery before
// that point restarts the replay, and the earlier report keeps 0.
func (s *RunSummary) foldTimeline() {
	var iterTotal float64
	iters, recs := 0, 0
	replaying, replayFrom := -1, 0.0
	for _, ev := range s.Trace {
		switch ev.Kind {
		case TraceIteration:
			iterTotal += ev.Duration()
			iters++
			if replaying >= 0 {
				if r := &s.Recoveries[replaying]; ev.Iter+1 >= r.Iteration+r.ReplayIters {
					r.ReplaySeconds = ev.End - replayFrom
					replaying = -1
				}
			}
		case TraceCheckpoint, TraceFTLog:
			s.Strategy.PersistCount++
		case TraceRecovery:
			if s.Recoveries[recs].Kind == RecoverCheckpoint.String() {
				replaying, replayFrom = recs, ev.End
			}
			recs++
		}
	}
	if iters > 0 {
		s.AvgIterSeconds = iterTotal / float64(iters)
	}
	s.Strategy.Recoveries = len(s.Recoveries)
	for _, rec := range s.Recoveries {
		s.Strategy.RecoverySeconds += rec.TotalSeconds()
	}
}

// ReplicationFactor returns total presences divided by vertex count, after
// FT extension (Fig 10a / Fig 14a).
func (c *Cluster[V, A]) ReplicationFactor() float64 {
	if c.g.NumVertices() == 0 {
		return 0
	}
	return float64(c.totalPresences) / float64(c.g.NumVertices())
}
