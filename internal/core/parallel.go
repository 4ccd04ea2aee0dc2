package core

import "imitator/internal/netsim"

// This file holds the simulated intra-node worker pool and the wire-slot
// plumbing. Config.WorkersPerNode is a cost-model input, not a host
// goroutine count: a cost-bearing phase (edge-cut compute, vertex-cut
// gather and apply, Rebirth placement) walks its work list as
// WorkersPerNode contiguous chunks (appendChunkBounds), in order on the
// node's own goroutine, and counts each chunk's raw busy time; charge folds
// those through Cost.ComputeTime(total, slowest). Every phase writes
// straight into the node's buffers, metrics and flags, so byte streams,
// metric sums and vertex values are those of one pass over [0, n) for every
// worker count; only the charged time depends on it.

// appendChunkBounds appends to dst at most p contiguous chunks covering
// [0, n) whose sizes differ by at most one. p is clamped to [1, n]; n == 0
// appends nothing.
func appendChunkBounds(dst [][2]int, n, p int) [][2]int {
	if n <= 0 {
		return dst
	}
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	base, rem := n/p, n%p
	lo := 0
	for i := 0; i < p; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		dst = append(dst, [2]int{lo, hi})
		lo = hi
	}
	return dst
}

// Wire-slot classes: a node's round traffic (R1, gather, sync) and its
// out-of-round activation notices to one destination are two buffer roles.
const (
	slotSend = iota
	slotNotice
	slotClasses
)

// wireSlot names the pool slot for node from's class traffic to node dst.
// The receiver parks each decoded superstep payload there (handBack) and the
// sender's next round of that class takes it back, so a wire buffer keeps
// the role that sized it however the nodes' phases interleave.
func (c *Cluster[V, A]) wireSlot(from, dst, class int) int {
	return (from*c.cfg.NumNodes+dst)*slotClasses + class
}

// handBack returns a decoded superstep round's payloads to their senders'
// wire slots. Recovery rounds are one-off roles and use recycleMsgs.
func (c *Cluster[V, A]) handBack(nd *node[V, A], msgs []netsim.Message, class int) {
	for i := range msgs {
		c.pool.PutSlot(c.wireSlot(msgs[i].From, nd.id, class), msgs[i].Payload)
		msgs[i].Payload = nil
	}
}

// wireBuf returns nd's class buffer to dst (sendBuf or noticeBuf), seeding
// an empty one from the role's wire slot. Callers append records and store
// the result back.
func (c *Cluster[V, A]) wireBuf(nd *node[V, A], dst, class int) []byte {
	if b := nd.bufs(class)[dst]; b != nil {
		return b
	}
	return c.pool.GetSlot(c.wireSlot(nd.id, dst, class))
}

// bufs returns nd's per-destination buffers of a wire-slot class.
func (n *node[V, A]) bufs(class int) [][]byte {
	if class == slotNotice {
		return n.noticeBuf
	}
	return n.sendBuf
}

// chunks returns the WorkersPerNode chunk bounds over [0, n) in nd's
// reusable scratch.
func (c *Cluster[V, A]) chunks(nd *node[V, A], n int) [][2]int {
	nd.bounds = appendChunkBounds(nd.bounds[:0], n, c.cfg.WorkersPerNode)
	return nd.bounds
}

// busySpan accumulates a cost-bearing phase's per-chunk busy times (raw
// single-core simulated seconds) in chunk order.
type busySpan struct{ total, slowest float64 }

func (s *busySpan) add(busy float64) {
	s.total += busy
	if busy > s.slowest {
		s.slowest = busy
	}
}

// charge converts a phase's busy span into simulated seconds with
// Cost.ComputeTime, adds them to nd's compute time and returns them; callers
// that model time add the result to nd.phaseCost.
func (c *Cluster[V, A]) charge(nd *node[V, A], s busySpan) float64 {
	if s.total == 0 {
		return 0
	}
	t := c.cfg.Cost.ComputeTime(s.total, s.slowest)
	nd.met.ComputeSeconds += t
	return t
}
