// Package netsim is the simulated cluster interconnect. Nodes exchange
// real encoded byte payloads; the package accounts bytes per round and
// converts them into simulated seconds using the cost model (per-node
// bandwidth, per-round latency, and a shared-fabric bisection term).
//
// Payloads move through one in-memory mailbox per receiver; the omission
// layer (lossy.go) decorates that delivery when a chaos schedule asks for
// lost, duplicated or reordered frames. Its envelope (envelope.go) is frame
// metadata carried in the Message and charged as 12 wire bytes; Drop
// consumes the discarded round's sequence numbers, so no receive can fail,
// and Err is the first error of FinishRound's serial transmit loop. The
// simulated clock models the paper's testbed, not the host machine.
//
// Concurrency contract: within one round, each sender goroutine may call
// Send concurrently with other senders; FinishRound and Receive must be
// called after all senders are done (the cluster enforces this with its
// barrier).
package netsim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"imitator/internal/costmodel"
)

// Kind labels a message's purpose, for dispatch and accounting.
type Kind uint8

// Message kinds.
const (
	KindSync       Kind = iota + 1 // master -> replica value sync
	KindGather                     // vertex-cut partial accumulator
	KindActivation                 // scatter activation notice
	KindRecovery                   // rebirth/migration recovery payload
	KindControl                    // membership / global state
)

// Message is one delivered payload.
type Message struct {
	From int
	Kind Kind
	// env is the omission layer's reliable-delivery metadata (envelope.go),
	// stamped on a reliable frame by its Send and read by its Collect.
	env     envelope
	Payload []byte
}

// Backend moves payloads between nodes. Implementations must support one
// concurrent sender goroutine per m.From and deliver each (from, to)
// stream in FIFO order.
type Backend interface {
	// Send enqueues one message for `to`.
	Send(to int, m Message)
	// EndRound marks the end of from's sends for this round, to every node
	// not marked in failed.
	EndRound(from int, failed []bool)
	// Collect returns the round's messages for `to` in ascending sender
	// order.
	Collect(to int) []Message
	// Drain discards anything pending for `to`.
	Drain(to int)
	// DrainFrom discards anything pending from `from` at every receiver
	// (stale state when a failed slot is revived).
	DrainFrom(from int)
}

// Network connects numNodes simulated nodes.
type Network struct {
	numNodes int
	params   costmodel.Params
	backend  Backend

	// Per-round byte counters; senders run concurrently, so ingress and
	// the round total are atomics.
	bytesOut []atomic.Int64
	bytesIn  []atomic.Int64
	failed   []bool

	// Cumulative per-node egress bytes, for Table 6.
	totalOut []atomic.Int64

	// costs is FinishRound's reusable result slice.
	costs []float64

	// Chaos degradation state, nil/zero unless a schedule installs it so the
	// fault-free fast path does no extra work (and no extra float math).
	// linkFactor multiplies the accounted cost of bytes on a directed link;
	// the slowdown surfaces as penalty bytes folded into the endpoints'
	// per-round volumes (never the fabric total — a slow link does not slow
	// the shared switch). roundDelay adds flat seconds to the fabric term of
	// rounds with traffic, modeling a delay burst.
	linkFactor map[[2]int]float64
	penaltyOut []atomic.Int64
	penaltyIn  []atomic.Int64
	roundDelay float64

	// omission is the lossy-channel + reliable-delivery decorator, nil
	// unless EnableOmission installed it; when set it aliases backend.
	omission *lossyBackend

	// err is the omission layer's first error. Only FinishRound's serial
	// transmit loop records one, so it needs no lock.
	err error
}

// New creates a network of numNodes nodes with in-memory delivery.
func New(numNodes int, params costmodel.Params) (*Network, error) {
	return NewWithBackend(numNodes, params, newMemBackend(numNodes))
}

// NewWithBackend creates a network over a custom delivery backend.
func NewWithBackend(numNodes int, params costmodel.Params, backend Backend) (*Network, error) {
	if numNodes < 1 {
		return nil, fmt.Errorf("netsim: need at least one node, got %d", numNodes)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		numNodes: numNodes,
		params:   params,
		backend:  backend,
		bytesOut: make([]atomic.Int64, numNodes),
		bytesIn:  make([]atomic.Int64, numNodes),
		failed:   make([]bool, numNodes),
		totalOut: make([]atomic.Int64, numNodes),
		costs:    make([]float64, numNodes),
	}
	return n, nil
}

// NumNodes returns the network size.
func (n *Network) NumNodes() int { return n.numNodes }

// SetFailed marks a node failed (its sends and deliveries are dropped) or
// revives it (a rebirth newbie taking over the slot). Reviving a slot
// discards any stale traffic attributed to its previous life.
func (n *Network) SetFailed(node int, failed bool) {
	if n.failed[node] && !failed {
		n.backend.DrainFrom(node)
		n.backend.Drain(node)
	}
	n.failed[node] = failed
}

// Failed reports whether a node is marked failed.
func (n *Network) Failed(node int) bool { return n.failed[node] }

// Err returns the omission layer's first error: a frame that the transmit
// loop could not get across its link. Receives cannot fail.
func (n *Network) Err() error { return n.err }

// Send enqueues payload from one node to another. Messages to or from
// failed nodes are silently dropped (fail-stop). The payload is retained;
// callers must not reuse the slice.
func (n *Network) Send(from, to int, kind Kind, payload []byte) {
	if n.failed[from] || n.failed[to] {
		return
	}
	size := int64(len(payload)) + headerBytes
	n.bytesOut[from].Add(size)
	n.bytesIn[to].Add(size)
	n.totalOut[from].Add(size)
	if n.linkFactor != nil {
		if f, ok := n.linkFactor[[2]int{from, to}]; ok {
			extra := int64(float64(size) * (f - 1))
			n.penaltyOut[from].Add(extra)
			n.penaltyIn[to].Add(extra)
		}
	}
	n.backend.Send(to, Message{From: from, Kind: kind, Payload: payload})
}

// DegradeLink slows the directed link from->to: bytes sent across it count
// factor times their size toward both endpoints' per-round volume (but not
// toward the fabric total or the cumulative traffic metrics). factor <= 1
// restores the link to full speed.
func (n *Network) DegradeLink(from, to int, factor float64) {
	if factor <= 1 {
		if n.linkFactor != nil {
			delete(n.linkFactor, [2]int{from, to})
			if len(n.linkFactor) == 0 {
				n.linkFactor = nil
			}
		}
		return
	}
	if n.linkFactor == nil {
		n.linkFactor = make(map[[2]int]float64)
		n.penaltyOut = make([]atomic.Int64, n.numNodes)
		n.penaltyIn = make([]atomic.Int64, n.numNodes)
	}
	n.linkFactor[[2]int{from, to}] = factor
}

// SetRoundDelay adds a flat simulated delay (seconds) to the fabric cost of
// every subsequent round that carries traffic, until reset to 0.
func (n *Network) SetRoundDelay(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	n.roundDelay = seconds
}

// headerBytes models per-message framing overhead on the wire.
const headerBytes = 16

// FinishRound closes the current messaging round and returns the simulated
// communication seconds per node — max(egress, ingress)/bandwidth plus one
// latency unit for nodes that communicated — and the aggregate fabric cost:
// the round's total bytes over the cluster's bisection capacity. The round
// duration is the larger of the slowest node and the fabric term, so even
// well-spread extra traffic (like fault-tolerance sync records) costs time.
// The returned costs slice is reused by the next FinishRound call.
func (n *Network) FinishRound() (costs []float64, fabric float64) {
	for from := 0; from < n.numNodes; from++ {
		if !n.failed[from] {
			n.backend.EndRound(from, n.failed)
		}
	}
	costs = n.costs
	active := 0
	var total int64
	for i := 0; i < n.numNodes; i++ {
		out := n.bytesOut[i].Swap(0)
		in := n.bytesIn[i].Swap(0)
		total += out
		if n.penaltyOut != nil {
			// Degraded-link penalty bytes inflate the endpoints' volumes
			// (the slow link takes longer to drain) without touching the
			// shared-fabric total.
			out += n.penaltyOut[i].Swap(0)
			in += n.penaltyIn[i].Swap(0)
		}
		vol := out
		if in > vol {
			vol = in
		}
		costs[i] = 0
		if vol > 0 {
			costs[i] = n.params.NetTransfer(vol) + n.params.NetLatency
			active++
		}
		if n.omission != nil {
			// Retransmission backoff is sender-local waiting: it extends
			// the sender's round without occupying the shared fabric.
			costs[i] += n.omission.takeDelay(i)
		}
	}
	if active > 0 {
		// The shared switch sustains about half its ideal bisection under
		// the all-to-all patterns BSP sync produces, so the fabric term is
		// 2x the per-node average; for balanced rounds it dominates the
		// per-node maximum and total traffic prices the round.
		fabric = n.params.NetTransfer(2*total)/float64(active) + n.params.NetLatency
		if n.roundDelay > 0 {
			fabric += n.roundDelay
		}
	}
	return costs, fabric
}

// Receive drains node `to`'s round in deterministic sender order. The
// returned slice is valid until the same node's next Receive; payload
// ownership transfers to the caller (the engine recycles them).
func (n *Network) Receive(to int) []Message {
	return n.backend.Collect(to)
}

// Drop discards all pending messages for a node; used when rolling back an
// iteration interrupted by a failure. Under the omission layer the
// discarded frames' sequence numbers count as consumed.
func (n *Network) Drop(to int) {
	n.backend.Drain(to)
}

// Close is a no-op kept for callers that release networks explicitly;
// in-memory delivery holds nothing to release.
func (n *Network) Close() error { return nil }

// TotalOutBytes returns cumulative egress bytes for a node.
func (n *Network) TotalOutBytes(node int) int64 { return n.totalOut[node].Load() }

// TotalBytes returns cumulative egress bytes across all nodes.
func (n *Network) TotalBytes() int64 {
	var t int64
	for i := range n.totalOut {
		t += n.totalOut[i].Load()
	}
	return t
}

// memBackend delivers through one mailbox per receiver, so a round costs
// O(messages) time and the backend holds no per-link state. Rounds need no
// markers: the caller's barrier separates send and collect.
type memBackend struct {
	boxes []mailbox
}

// mailbox is one receiver's pending messages, in arrival order. Concurrent
// senders interleave under mu; each sender's own messages stay in its send
// order, which is all Collect needs to restore (sender, FIFO) order.
type mailbox struct {
	mu  sync.Mutex
	in  []Message
	out []Message // the previous Collect's result, recycled by the next
}

// queueSlots is the capacity every per-node message queue starts with,
// carved from one slab per backend: more than a gossip member or a node of an
// 8-node engine handles in a round, so most queues never grow.
const queueSlots = 8

func newMemBackend(numNodes int) *memBackend {
	b := &memBackend{boxes: make([]mailbox, numNodes)}
	slab := make([]Message, 2*queueSlots*numNodes)
	for i := range b.boxes {
		b.boxes[i].in = slab[2*queueSlots*i:][:0:queueSlots]
		b.boxes[i].out = slab[(2*i+1)*queueSlots:][:0:queueSlots]
	}
	return b
}

// Send implements Backend.
func (b *memBackend) Send(to int, m Message) {
	box := &b.boxes[to]
	box.mu.Lock()
	box.in = append(box.in, m)
	box.mu.Unlock()
}

// EndRound implements Backend (no-op: the barrier is the round boundary).
func (b *memBackend) EndRound(int, []bool) {}

// Collect implements Backend. The returned slice is reused by the same
// receiver's Collect after next; its payload references are dropped at the
// next one, since delivery handed the payloads to the caller.
func (b *memBackend) Collect(to int) []Message {
	box := &b.boxes[to]
	box.mu.Lock()
	msgs := box.in
	clear(box.out)
	box.in, box.out = box.out[:0], msgs
	box.mu.Unlock()
	// Ascending sender order; stable, so every link stays FIFO. Serial senders
	// (the omission layer's EndRound loop) arrive in order and cost one pass.
	slices.SortStableFunc(msgs, bySender)
	return msgs
}

func bySender(a, b Message) int { return a.From - b.From }

// Drain implements Backend.
func (b *memBackend) Drain(to int) {
	box := &b.boxes[to]
	box.mu.Lock()
	clear(box.in)
	box.in = box.in[:0]
	box.mu.Unlock()
}

// DrainFrom implements Backend.
func (b *memBackend) DrainFrom(from int) {
	for to := range b.boxes {
		box := &b.boxes[to]
		box.mu.Lock()
		box.in = slices.DeleteFunc(box.in, func(m Message) bool { return m.From == from })
		box.mu.Unlock()
	}
}

var _ Backend = (*memBackend)(nil)
