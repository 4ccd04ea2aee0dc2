package core

import (
	"slices"
	"strings"

	"imitator/internal/netsim"
)

// chaosRuntime is the engine side of a Config.Chaos schedule. It exists
// only when a schedule is set: every hook in the steady-state loop is
// gated on a nil check, so fault-free runs pay nothing.
//
// This is the only way a node fails: nothing marks it failed at the
// coordinator directly. A crash event's victims merely go silent, and the
// configured failureDetector (detector.go) — the centralized heartbeat
// master by default, SWIM gossip with Config.Membership — detects and
// announces them (§3.2); the failure then surfaces at the next global
// barrier.
type chaosRuntime struct {
	// events is the validated schedule. fired[i] marks event i applied
	// (crashed, installed or, for a delay burst, spent) and healed[i] a
	// partition's heal, so an iteration re-executed after rollback applies
	// nothing twice.
	events        []ChaosEvent
	fired, healed []bool
	// pendingPart collects nodes isolated at the current iteration's
	// start; after the superstep they go silent and the detector
	// suspects, then confirms them (chaosPartitionSilence).
	pendingPart []int

	// det is the pluggable failure detector (Config.Membership), created
	// lazily by the first crash.
	det failureDetector
	// netEvents replays the omission chaos applied so far (drop rates,
	// partitions, heals) onto the gossip detector's own network, which
	// may be created after the events fire.
	netEvents []func(*netsim.Network)
}

// newChaosRuntime takes a copy of a validated schedule for the run loop.
func newChaosRuntime(events []ChaosEvent) *chaosRuntime {
	n := len(events)
	return &chaosRuntime{events: slices.Clone(events), fired: make([]bool, n), healed: make([]bool, n)}
}

// fire applies, in schedule order, every event that match selects and done
// does not yet mark, marking it first.
func (ch *chaosRuntime) fire(done []bool, match func(ev *ChaosEvent) bool, apply func(ev *ChaosEvent)) {
	for i := range ch.events {
		if ev := &ch.events[i]; !done[i] && match(ev) {
			done[i] = true
			apply(ev)
		}
	}
}

// chaosIterStart applies the chaos events due at the top of an iteration:
// link degradations and delay bursts first (so they shape the iteration's
// rounds, including any recovery rounds the iteration triggers), then
// before-barrier crashes. Degradations persist; a delay burst covers one
// execution attempt of its iteration.
func (c *Cluster[V, A]) chaosIterStart(iter int) {
	ch := c.chaos
	if ch == nil {
		return
	}
	due := func(kinds ...ChaosKind) func(ev *ChaosEvent) bool {
		return func(ev *ChaosEvent) bool { return ev.Iteration == iter && slices.Contains(kinds, ev.Kind) }
	}
	// Heals run first: a partition scheduled to end here releases its
	// parked frames before this iteration's traffic (they face the epoch
	// fence at the receivers' next Collect).
	healDue := func(ev *ChaosEvent) bool { return ev.Kind == ChaosPartition && ev.HealIter == iter }
	ch.fire(ch.healed, healDue, func(ev *ChaosEvent) {
		c.net.Heal(ev.Nodes)
		c.chaosMirror(func(n *netsim.Network) { n.Heal(ev.Nodes) })
	})
	ch.fire(ch.fired, due(ChaosDrop, ChaosDuplicate, ChaosReorder), func(ev *ChaosEvent) {
		switch ev.Kind {
		case ChaosDrop:
			c.net.SetDropRate(ev.From, ev.To, ev.Prob)
			c.chaosMirror(func(n *netsim.Network) { n.SetDropRate(ev.From, ev.To, ev.Prob) })
		case ChaosDuplicate:
			c.net.SetDupRate(ev.From, ev.To, ev.Prob)
			c.chaosMirror(func(n *netsim.Network) { n.SetDupRate(ev.From, ev.To, ev.Prob) })
		case ChaosReorder:
			c.net.SetReorderRate(ev.From, ev.To, ev.Prob)
			c.chaosMirror(func(n *netsim.Network) { n.SetReorderRate(ev.From, ev.To, ev.Prob) })
		}
	})
	ch.fire(ch.fired, due(ChaosPartition), func(ev *ChaosEvent) {
		// The cut lands before the superstep: the isolated nodes still
		// compute and send, so their frames park in the cable — the stale
		// traffic the epoch fence must later reject.
		c.net.Partition(ev.Nodes)
		c.chaosMirror(func(n *netsim.Network) { n.Partition(ev.Nodes) })
		ch.pendingPart = append(ch.pendingPart, ev.Nodes...)
	})
	ch.fire(ch.fired, due(ChaosSlowLink), func(ev *ChaosEvent) { c.net.DegradeLink(ev.From, ev.To, ev.Factor) })
	delay := 0.0
	ch.fire(ch.fired, due(ChaosDelayBurst), func(ev *ChaosEvent) { delay += ev.Seconds })
	c.net.SetRoundDelay(delay)
	c.chaosCrashAt(iter, FailBeforeBarrier)
}

// chaosCrashAt fires the crash events scheduled for (iter, phase), once,
// as one victim set.
func (c *Cluster[V, A]) chaosCrashAt(iter int, phase FailPhase) {
	if c.chaos == nil {
		return
	}
	var nodes []int
	c.chaos.fire(c.chaos.fired, func(ev *ChaosEvent) bool {
		return ev.Kind == ChaosCrash && ev.Iteration == iter && ev.Phase == phase
	}, func(ev *ChaosEvent) { nodes = append(nodes, ev.Nodes...) })
	if len(nodes) > 0 {
		c.crash(nodes)
	}
}

// chaosRecoveryPhase fires pending crash-during-recovery events whose
// label prefix matches the recovery phase just reached.
func (c *Cluster[V, A]) chaosRecoveryPhase(phase string) {
	c.chaos.fire(c.chaos.fired, func(ev *ChaosEvent) bool {
		return ev.Kind == ChaosCrashDuringRecovery && strings.HasPrefix(phase, ev.During)
	}, func(ev *ChaosEvent) { c.crash(ev.Nodes) })
}

// chaosPartitionSilence runs after the superstep of an iteration that
// installed a partition: the isolated nodes have computed and sent (their
// frames parked in the cable), and from the cluster's point of view they
// now go silent. The detector suspects and then confirms them like any
// crash; the barrier announces the failure, the iteration rolls back,
// and recovery rebuilds the slots with a bumped epoch that fences the
// parked traffic when the partition heals.
func (c *Cluster[V, A]) chaosPartitionSilence() {
	if c.chaos == nil || len(c.chaos.pendingPart) == 0 {
		return
	}
	nodes := c.chaos.pendingPart
	c.chaos.pendingPart = c.chaos.pendingPart[:0]
	c.crash(nodes)
}

// crash fail-stops the given nodes and lets the configured failure
// detector notice: the victims go silent and the detector — centralized or
// SWIM gossip, per Config.Membership —
// advances the simulated clock by its detection delay and announces first
// suspicion and then confirmation to the coordinator (surfacing in the
// next barrier state).
func (c *Cluster[V, A]) crash(nodes []int) {
	c.ensureDetector()
	var victims []int
	for _, id := range nodes {
		if n := c.nodes[id]; n != nil && n.alive {
			n.alive = false
			c.net.SetFailed(id, true)
			victims = append(victims, id)
		}
	}
	if len(victims) == 0 {
		return
	}
	c.aliveDirty = true
	c.chaos.det.detect(victims)
}

// chaosMirror records one omission-chaos application and forwards it to
// the gossip detector's network if one exists; the log lets a detector
// built after the events fire start under the same faults.
func (c *Cluster[V, A]) chaosMirror(apply func(*netsim.Network)) {
	c.chaos.netEvents = append(c.chaos.netEvents, apply)
	if c.chaos.det != nil {
		if n := c.chaos.det.net(); n != nil {
			apply(n)
		}
	}
}

// ensureDetector lazily builds the configured failure detector, tracking
// every currently alive node. The gossip detector additionally replays
// the omission chaos applied so far onto its own network.
func (c *Cluster[V, A]) ensureDetector() {
	ch := c.chaos
	if ch.det != nil {
		return
	}
	host := detectorHost{
		clock: &c.clock,
		cost:  c.cfg.Cost,
		alive: func() []int {
			nodes := c.aliveNodes()
			ids := make([]int, len(nodes))
			for i, nd := range nodes {
				ids[i] = nd.id
			}
			return ids
		},
		suspect: func(id int) { c.coord.Suspect(id) },
		confirm: func(id int) { c.coord.MarkFailed(id) },
	}
	if c.cfg.Membership.Kind == MembershipGossip {
		det, err := newGossipDetector(len(c.nodes), c.cfg.ChaosSeed, host)
		if err != nil {
			// Membership and NumNodes are validated together; this
			// cannot fire.
			panic(err)
		}
		for _, apply := range ch.netEvents {
			apply(det.net())
		}
		ch.det = det
		return
	}
	ch.det = newCentralDetector(host)
}

// chaosTrack registers a node that (re)joined the membership — a rebirth or
// checkpoint newbie — with the failure detector, so a later chaos crash of
// the revived slot is detected like any other.
func (c *Cluster[V, A]) chaosTrack(id int) {
	if c.chaos == nil || c.chaos.det == nil {
		return
	}
	c.chaos.det.track(id)
}
