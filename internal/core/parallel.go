package core

import (
	"imitator/internal/bufpool"
	"imitator/internal/hostpar"
	"imitator/internal/metrics"
	"imitator/internal/netsim"
)

// This file implements the intra-node worker pool. Each simulated node
// shards its flat vertex tables (or any indexable work list) into
// Config.WorkersPerNode contiguous chunks and processes them concurrently.
//
// Determinism argument: every parallelized loop writes either
//   (a) fields of the entry it owns (index-disjoint across chunks),
//   (b) per-worker staging buffers (stager) merged in chunk order, or
//   (c) idempotent boolean activations collected as position lists and
//       applied after the join.
// Sequential iteration order equals the concatenation of chunks 0..P-1, so
// the merged per-destination byte streams, metric sums and vertex values are
// bit-for-bit identical for every worker count — which is what keeps the
// recovery-equivalence invariant independent of P.
//
// Allocation discipline: stagers are owned by the node and reused across
// phases, chunk bounds append into a node-owned scratch slice, and staging
// buffers cycle through the cluster's buffer pool, each back to the wire
// slot of the role that sized it (wireSlot), so a warm steady-state
// superstep performs no per-phase allocations.

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

// chunkBounds splits [0, n) into at most p contiguous chunks whose sizes
// differ by at most one (fresh-slice form, used by tests and cold paths).
func chunkBounds(n, p int) [][2]int {
	return appendChunkBounds(nil, n, p)
}

// stager is one worker's private staging area for a chunked phase. Workers
// never touch the owning node's shared buffers; the pool merges stagers in
// chunk order after the join, reproducing the sequential byte streams.
// Stagers are retained on the node and reset by the merge, so steady-state
// phases reuse their slices and buffers instead of reallocating them.
type stager struct {
	// pool re-seeds staging buffers after the merge steals them; slot0 is
	// the owning node's first wire slot in it (Cluster.wireSlot).
	pool  *bufpool.Pool
	slot0 int
	// send/notice mirror node.sendBuf/noticeBuf, one buffer per destination.
	send   [][]byte
	notice [][]byte
	// met accumulates this worker's metric deltas.
	met metrics.Node
	// pendingActive/active list entry positions whose flag the worker wants
	// set. Booleans are idempotent, so applying the lists after the join is
	// order-insensitive — but doing it post-join keeps the race detector
	// clean and the writes out of the parallel section.
	pendingActive []int32
	active        []int32
	// busy is the worker's raw single-core compute cost in simulated seconds.
	busy float64
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

// buf returns the staging buffer for destination dst, seeding an empty slot
// from the pool. Callers append records and store the result back with
// setBuf.
func (st *stager) buf(dst int) []byte {
	b := st.send[dst]
	if b == nil && st.pool != nil {
		b = st.pool.GetSlot(st.slot0 + dst*slotClasses + slotSend)
	}
	return b
}

// noticeBuf is buf for the out-of-round activation notice buffers.
func (st *stager) noticeBuf(dst int) []byte {
	b := st.notice[dst]
	if b == nil && st.pool != nil {
		b = st.pool.GetSlot(st.slot0 + dst*slotClasses + slotNotice)
	}
	return b
}

// setBuf stores an appended-to staging buffer back into its slot.
func (st *stager) setBuf(dst int, b []byte) { st.send[dst] = b }

// markActive requests hot[pos].active = true after join.
func (st *stager) markActive(pos int32) {
	st.active = append(st.active, pos)
}

// reset clears the per-phase accumulators, keeping slice capacity.
func (st *stager) reset() {
	st.met = metrics.Node{}
	st.pendingActive = st.pendingActive[:0]
	st.active = st.active[:0]
	st.busy = 0
}

// chunked shards [0, n) across nd's worker pool and runs body on every
// chunk, giving each worker a private stager. After all workers join it
// merges the stagers in chunk order into nd's shared buffers, applies the
// activation lists, folds worker metrics into nd.met and per-worker busy
// time into the cluster's worker metrics, and converts the phase's raw cost
// (sum of busy) into simulated seconds via Cost.ComputeTime. The return
// value is that simulated duration; callers that model time add it to
// nd.phaseCost. Phases that stage bytes without accounting compute cost
// leave busy at zero and get 0 back.
//
// Hot callers pass a pre-bound body (node.bodies) rather than a closure
// literal: the multi-worker path hands body to goroutines, so the compiler
// heap-allocates any literal passed here at every call site.
func (c *Cluster[V, A]) chunked(nd *node[V, A], n int, body func(st *stager, lo, hi int)) float64 {
	nd.bounds = appendChunkBounds(nd.bounds[:0], n, c.cfg.WorkersPerNode)
	bounds := nd.bounds
	if len(bounds) == 0 {
		return 0
	}
	sts := nd.stagers[:len(bounds)]
	if len(bounds) == 1 {
		// Inline fast path: one chunk runs on the calling goroutine, and no
		// closure is built (keeps the workers=1 steady state alloc-free).
		body(sts[0], bounds[0][0], bounds[0][1])
	} else {
		//imitator:hotalloc-ok multi-chunk path only; the single-chunk steady state takes the inline branch above
		hostpar.For(len(bounds), c.chunkSlots, func(w int) {
			body(sts[w], bounds[w][0], bounds[w][1])
		})
	}

	var total, slowest float64
	for _, st := range sts {
		for dst, buf := range st.send {
			if len(buf) == 0 {
				continue
			}
			if len(nd.sendBuf[dst]) == 0 {
				if cap(nd.sendBuf[dst]) > 0 {
					c.pool.Put(nd.sendBuf[dst])
				}
				nd.sendBuf[dst] = buf // steal: no copy at W=1
			} else {
				nd.sendBuf[dst] = append(nd.sendBuf[dst], buf...)
				c.pool.Put(buf)
			}
			st.send[dst] = nil
		}
		for dst, buf := range st.notice {
			if len(buf) == 0 {
				continue
			}
			if len(nd.noticeBuf[dst]) == 0 {
				if cap(nd.noticeBuf[dst]) > 0 {
					c.pool.Put(nd.noticeBuf[dst])
				}
				nd.noticeBuf[dst] = buf
			} else {
				nd.noticeBuf[dst] = append(nd.noticeBuf[dst], buf...)
				c.pool.Put(buf)
			}
			st.notice[dst] = nil
		}
		nd.met.Add(&st.met)
		for _, pos := range st.pendingActive {
			nd.hot[pos].pendingActive = true
		}
		for _, pos := range st.active {
			nd.hot[pos].active = true
		}
		total += st.busy
		if st.busy > slowest {
			slowest = st.busy
		}
		st.reset()
	}
	if total == 0 {
		return 0
	}
	t := c.cfg.Cost.ComputeTime(total, slowest)
	nd.met.ComputeSeconds += t
	return t
}

// chunkEncode shards [0, n) across the pool for flat-stream encoding: each
// worker appends its chunk's records to a pool-seeded buffer and reports
// how many it wrote. Buffers come back in chunk order, so their
// concatenation equals the sequential encoding; the caller stitches them
// after any header and returns them to the pool when done.
func (c *Cluster[V, A]) chunkEncode(n int, body func(buf []byte, lo, hi int) ([]byte, int)) ([][]byte, int) {
	bounds := chunkBounds(n, c.cfg.WorkersPerNode)
	if len(bounds) == 0 {
		return nil, 0
	}
	bufs := make([][]byte, len(bounds))
	counts := make([]int, len(bounds))
	for w := range bufs {
		bufs[w] = c.pool.Get()
	}
	if len(bounds) == 1 {
		bufs[0], counts[0] = body(bufs[0], bounds[0][0], bounds[0][1])
	} else {
		hostpar.For(len(bounds), c.chunkSlots, func(w int) {
			bufs[w], counts[w] = body(bufs[w], bounds[w][0], bounds[w][1])
		})
	}
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	return bufs, total
}
