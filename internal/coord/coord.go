// Package coord provides the coordination service the paper inherits from
// Apache Hama: barrier-based synchronization, shared global state, cluster
// membership and failure announcement (a Zookeeper stand-in, §3.2).
// Failure detection itself lives with the simulation's clock, in
// internal/core's failureDetector.
//
// The barrier is reusable and failure-aware: when a node is marked failed
// while others compute, every surviving node learns about it in the
// BarrierState returned from its next EnterBarrier call — exactly the
// enter_barrier()/leave_barrier() state checks of Algorithm 1. A driver
// that runs every node itself, and so knows they have all arrived, passes
// the same barrier with one Release call.
package coord

import (
	"fmt"
	"sort"
	"sync"
)

// BarrierState is what a node learns when a barrier releases.
type BarrierState struct {
	// Generation is the sequence number of the released barrier.
	Generation int
	// Failed lists nodes whose failure was announced since the previous
	// barrier, in ascending order. Empty on normal iterations.
	Failed []int
}

// IsFail reports whether this barrier announced any failure.
func (s BarrierState) IsFail() bool { return len(s.Failed) > 0 }

// Coordinator implements the membership + barrier service.
type Coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond

	alive       map[int]bool
	arrived     map[int]bool
	generation  int
	pendingFail []int
	// epochs[n] is node n's membership incarnation, starting at 1 and
	// bumped every time the slot rejoins (a rebirth newbie taking over).
	// Messages stamped with an older epoch belong to a previous life of
	// the slot and must be fenced (split-brain safety under partitions).
	epochs map[int]uint64
	// suspected marks nodes past the suspicion timeout but not yet past
	// the confirmation deadline: the cluster treats them as possibly dead
	// (stops waiting on them) without announcing a failure.
	suspected map[int]bool
	// states is a two-slot ring serving EnterBarrier: states[g%2] = state
	// of generation g's release. Two slots suffice because a straggler of
	// generation g must return from EnterBarrier(g) — and read its slot —
	// before it can enter barrier g+1, so slot g%2 is never overwritten (by
	// g+2) while a reader still needs it.
	states [2]BarrierState

	kv map[string]int64
}

// New creates a Coordinator with nodes 0..numNodes-1 alive.
func New(numNodes int) (*Coordinator, error) {
	if numNodes < 1 {
		return nil, fmt.Errorf("coord: need at least one node, got %d", numNodes)
	}
	c := &Coordinator{
		alive:     make(map[int]bool, numNodes),
		arrived:   make(map[int]bool, numNodes),
		epochs:    make(map[int]uint64, numNodes),
		suspected: make(map[int]bool),
		kv:        make(map[string]int64),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := 0; i < numNodes; i++ {
		c.alive[i] = true
		c.epochs[i] = 1
	}
	return c, nil
}

// EnterBarrier blocks until every alive node has entered, then returns the
// barrier's state. Safe for concurrent use by one goroutine per node.
func (c *Coordinator) EnterBarrier(node int) BarrierState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive[node] {
		// A failed node straggling in: release it immediately with the
		// current state; the driver stops running it.
		return BarrierState{Generation: c.generation, Failed: append([]int(nil), c.pendingFail...)}
	}
	c.arrived[node] = true
	myGen := c.generation
	if c.allArrivedLocked() {
		c.releaseLocked()
	} else {
		for c.generation == myGen {
			c.cond.Wait()
		}
	}
	return c.states[myGen%2]
}

// Release passes the barrier for every alive node at once: it publishes
// the pending failures and returns the state each EnterBarrier caller
// would have seen. For a driver that runs all nodes and so knows they
// have arrived.
func (c *Coordinator) Release() BarrierState {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.generation
	c.releaseLocked()
	return c.states[g%2]
}

// allArrivedLocked reports whether every alive node has arrived.
func (c *Coordinator) allArrivedLocked() bool {
	if len(c.alive) == 0 {
		return false
	}
	for n, a := range c.alive {
		if a && !c.arrived[n] {
			return false
		}
	}
	return true
}

// releaseLocked publishes the barrier state and wakes waiters. On the
// common no-failure round nothing here allocates: the failed slice stays
// nil, the ring slot is overwritten in place, and clear() keeps the
// arrived map's storage.
func (c *Coordinator) releaseLocked() {
	failed := append([]int(nil), c.pendingFail...)
	sort.Ints(failed)
	c.states[c.generation%2] = BarrierState{Generation: c.generation, Failed: failed}
	c.pendingFail = nil
	c.generation++
	clear(c.arrived)
	c.cond.Broadcast()
}

// MarkFailed announces a node failure (fail-stop). The failure surfaces in
// the next barrier release; if every remaining alive node is already
// waiting, the barrier releases immediately.
func (c *Coordinator) MarkFailed(node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive[node] {
		return
	}
	c.alive[node] = false
	delete(c.arrived, node)
	delete(c.suspected, node)
	c.pendingFail = append(c.pendingFail, node)
	if c.allArrivedLocked() {
		c.releaseLocked()
	}
}

// Suspect marks a node as suspected dead: it missed the suspicion
// timeout but has not yet crossed the confirmation deadline. Suspicion
// is advisory — membership and barriers are unaffected until MarkFailed
// confirms — and is cleared by MarkFailed (confirmed) or Join (revived).
// Returns whether the node was alive and newly suspected.
func (c *Coordinator) Suspect(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.alive[node] || c.suspected[node] {
		return false
	}
	c.suspected[node] = true
	return true
}

// Suspected reports whether a node is currently suspected dead.
func (c *Coordinator) Suspected(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suspected[node]
}

// Join adds a node to the membership (a rebirth newbie taking over; §5.1)
// and bumps the slot's epoch: the newbie is a fresh incarnation, and any
// in-flight traffic stamped with the previous epoch is fenced on arrival.
// The node then synchronizes with the survivors at the next barrier.
func (c *Coordinator) Join(node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive[node] = true
	delete(c.suspected, node)
	c.epochs[node]++
}

// Leave drops a node from the membership without announcing a failure: for
// a slot whose failure was already handled, as when a rebirth newbie is
// abandoned because its recovery fell back to migration. Nothing surfaces
// at the next barrier and the epoch stays. Like Join, it is for a driver
// between barriers: it does not release one that others are waiting in.
func (c *Coordinator) Leave(node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive[node] = false
	delete(c.arrived, node)
	delete(c.suspected, node)
}

// Epoch returns a node's current membership incarnation (1 at job start,
// +1 per Join). Epoch 0 is never issued, so it can stamp "no epoch".
func (c *Coordinator) Epoch(node int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs[node]
}

// Alive reports whether a node is currently a member.
func (c *Coordinator) Alive(node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alive[node]
}

// Set stores a shared global value (e.g., a node's vertex-array length,
// so a rebirth newbie can size its arrays before reloading them).
func (c *Coordinator) Set(key string, value int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kv[key] = value
}

// Get reads a shared global value.
func (c *Coordinator) Get(key string) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.kv[key]
	return v, ok
}
