package imitator

import (
	"imitator/internal/chaos"
	"imitator/internal/core"
)

// FailureEvent is one typed entry of a failure schedule. Build events with
// Crash, CrashDuringRecovery, SlowLink and DelayBurst rather than filling
// the struct directly.
type FailureEvent = core.ChaosEvent

// FailureSchedule is an ordered list of failure events; compose one with
// the event builders and install it with WithFailures.
type FailureSchedule = chaos.Schedule

// Crash schedules a fail-stop of the given nodes at iteration iter in the
// given phase. The nodes go silent and the configured failure detector
// (WithMembership; the centralized heartbeat monitor by default) notices
// at its detection cost — this is the only way a node fails.
func Crash(iter int, phase FailPhase, nodes ...int) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosCrash, Iteration: iter, Phase: phase, Nodes: nodes}
}

// CrashDuringRecovery schedules a fail-stop of the given nodes the moment
// the first recovery pass of the run reaches its first phase — a failure
// in the middle of handling an earlier failure (§5.3.2). Fires at most
// once.
func CrashDuringRecovery(nodes ...int) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosCrashDuringRecovery, Nodes: nodes}
}

// CrashDuringRecoveryAt is CrashDuringRecovery pinned to a recovery phase
// label prefix, e.g. "migration:repair" or "rebirth:reload" (or just
// "migration:" for the first migration phase reached). A label that is a
// prefix of no recovery phase is rejected with ErrInvalidSchedule.
func CrashDuringRecoveryAt(label string, nodes ...int) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosCrashDuringRecovery, During: label, Nodes: nodes}
}

// SlowLink degrades the from->to link by factor (>= 1) from iteration iter
// onwards: transfers over it cost factor times the modeled time. Values
// are unaffected; only the simulated timeline changes.
func SlowLink(iter, from, to int, factor float64) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosSlowLink, Iteration: iter, From: from, To: to, Factor: factor}
}

// DelayBurst adds seconds of extra latency to every messaging round of one
// execution attempt of iteration iter.
func DelayBurst(iter int, seconds float64) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosDelayBurst, Iteration: iter, Seconds: seconds}
}

// Drop makes the from->to link lose each frame with probability prob
// (capped at MaxDropRate) from iteration iter onwards. Omission events
// install the reliable-delivery layer: frames are sequenced, acked and
// retransmitted, so values never change — only retransmission traffic and
// simulated time do (Result.Omission reports the wire activity). Fates are
// drawn per link from the seed set with WithChaosSeed.
func Drop(iter, from, to int, prob float64) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosDrop, Iteration: iter, From: from, To: to, Prob: prob}
}

// Duplicate makes the from->to link deliver each frame twice with
// probability prob from iteration iter onwards; the receiver deduplicates
// by sequence number.
func Duplicate(iter, from, to int, prob float64) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosDuplicate, Iteration: iter, From: from, To: to, Prob: prob}
}

// Reorder makes the from->to link displace each frame with probability
// prob from iteration iter onwards; the receiver restores sequence order
// before delivery.
func Reorder(iter, from, to int, prob float64) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosReorder, Iteration: iter, From: from, To: to, Prob: prob}
}

// Partition cuts the given nodes off the rest of the cluster at iteration
// iter and heals the cut at iteration heal (a heal >= the iteration count
// never heals). The partitioned nodes stay alive and keep computing, but
// their frames park in the severed links; survivors detect the silence
// (suspicion, then confirmation) and rebuild the slots under a bumped
// membership epoch, so the old incarnations' frames are fenced when the
// partition heals — the split-brain safety property.
func Partition(iter, heal int, nodes ...int) FailureEvent {
	return core.ChaosEvent{Kind: core.ChaosPartition, Iteration: iter, HealIter: heal, Nodes: nodes}
}

// MaxDropRate is the largest per-link drop probability accepted by Drop
// events; higher rates would stall the bounded retransmission protocol.
const MaxDropRate = core.MaxDropRate

// WithChaosSeed seeds the deterministic per-link fate generators of the
// omission events (Drop, Duplicate, Reorder). The same schedule with the
// same seed replays bit-identically — retransmit counts, simulated time
// and byte streams included; different seeds draw different loss patterns
// from the same probabilities. Without omission events the seed is unused.
func WithChaosSeed(seed uint64) Option {
	return func(c *Config) { c.ChaosSeed = seed }
}

// OmissionStats is the omission-fault layer's wire accounting, reported in
// Result.Omission (nil when the schedule had no omission events).
type OmissionStats = core.OmissionStats

// WithFailures installs a failure schedule composed from the event
// builders:
//
//	imitator.WithFailures(
//		imitator.Crash(3, imitator.FailBeforeBarrier, 1),
//		imitator.CrashDuringRecoveryAt("migration:repair", 4),
//		imitator.SlowLink(2, 0, 3, 8),
//	)
//
// Repeated options append. Invalid schedules are reported by NewCluster /
// Run with an error matching ErrInvalidSchedule.
func WithFailures(events ...FailureEvent) Option {
	return func(c *Config) { c.Chaos = append(c.Chaos, events...) }
}

// ParseFailureSchedule parses the compact one-line schedule grammar
// ("crash@3b=1|crashrec@migration:repair=4|slow@2=0>3x8|delay@4=0.25");
// FailureSchedule.String is the inverse. Errors match
// ErrInvalidSchedule.
func ParseFailureSchedule(s string) (FailureSchedule, error) {
	return chaos.ParseEvents(s)
}

// ChaosCampaign is a seeded randomized fault-injection campaign: every
// round draws a multi-failure schedule and checks convergence to the
// fault-free result. See internal/chaos for the scenario mix.
type ChaosCampaign = chaos.Campaign

// ChaosReport is a finished campaign's summary; failed rounds carry
// deterministic repro strings replayable with ChaosCampaign.Replay.
type ChaosReport = chaos.Report

// Typed failure-handling sentinels. Match with errors.Is; both
// ErrNoStandby and ErrTooManyFailures also match ErrUnrecoverable.
var (
	// ErrUnrecoverable reports a failure the configured strategy cannot
	// recover from.
	ErrUnrecoverable = core.ErrUnrecoverable
	// ErrNoStandby reports an exhausted standby pool during a Rebirth or
	// Checkpoint recovery (see WithMaxRebirths and ReplicationFallback).
	ErrNoStandby = core.ErrNoStandby
	// ErrTooManyFailures reports more simultaneous node losses than the
	// replication factor K tolerates.
	ErrTooManyFailures = core.ErrTooManyFailures
	// ErrInvalidSchedule reports a malformed failure schedule or an event
	// referencing iterations/nodes outside the job.
	ErrInvalidSchedule = core.ErrInvalidSchedule
)
