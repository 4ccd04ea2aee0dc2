// Omission-fault layer: a lossy Backend decorator plus the reliable
// delivery protocol that keeps the engine correct on top of it.
//
// The channel model drops, duplicates and reorders frames per directed
// link with installed probabilities, and can cut links entirely
// (partitions park frames "in the cable" until the partition heals).
// Every fate is drawn from a per-link RNG seeded from the chaos seed and
// the link endpoints, so a run replays bit-for-bit: same schedule + same
// seed means identical retransmit counts, simulated time and byte
// streams.
//
// Reliability is sender-driven and round-synchronous, matching the BSP
// shape of the engine: frames carry an envelope (envelope.go: per-link
// sequence number plus sender/receiver membership epochs, held in the
// Message and charged as wire bytes), the sender
// retransmits a dropped frame until it traverses — charging every retry
// and a bounded exponential backoff through the cost model — and the
// receiver deduplicates by sequence number, restores FIFO order, and
// fences frames from or to stale incarnations of a node slot. The
// decorator is only installed when a schedule contains omission events,
// so the reliable fast path pays nothing.
package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"imitator/internal/rng"
)

// maxRetxAttempts bounds the per-frame retransmission loop. With the
// validated drop-rate ceiling (0.9) the chance of hitting it is
// negligible; reaching it means a modeling bug, reported through
// Network.Err rather than an infinite loop.
const maxRetxAttempts = 10000

// OmissionStats counts the omission layer's wire-level activity. All
// counters are cumulative over the run.
type OmissionStats struct {
	// Retransmits is the number of frame re-traversals after a loss.
	Retransmits int64
	// RetransmitBytes is the wire bytes of those re-traversals.
	RetransmitBytes int64
	// AckBytes is the wire bytes of cumulative acks on links that needed
	// at least one retransmission in a round (ack-free rounds piggyback).
	AckBytes int64
	// DuplicatesDelivered counts wire-level duplicate arrivals injected
	// by the channel; DuplicatesDropped counts the receiver-side dedup
	// hits that discarded them (and late retransmit copies).
	DuplicatesDelivered int64
	DuplicatesDropped   int64
	// Reordered counts frames the channel held back past a later frame.
	Reordered int64
	// Parked counts frames captured mid-flight by a partition; Released
	// counts parked frames delivered when the partition healed.
	Parked   int64
	Released int64
	// Fenced counts frames dropped by the split-brain fence: stamped
	// with a stale sender or receiver epoch, or sent by a slot that is
	// currently failed.
	Fenced int64
	// DroppedDead counts frames discarded because their receiver was
	// already confirmed failed at flush or release time.
	DroppedDead int64
	// DatagramsLost counts best-effort frames (SetDatagramKind) that the
	// channel lost for good: a drop fate, or a cut link. Datagrams are
	// never retransmitted or parked.
	DatagramsLost int64
	// BackoffSeconds is the simulated time spent in retransmission
	// backoff, summed over all senders.
	BackoffSeconds float64
}

// linkFaults holds one directed link's installed fault probabilities.
type linkFaults struct {
	drop, dup, reorder float64
}

func (f linkFaults) none() bool { return f.drop == 0 && f.dup == 0 && f.reorder == 0 }

// lossyFrame is one frame on the link m.From -> to: queued at its sender
// for the round, or parked in the cable by a partition.
type lossyFrame struct {
	to int
	m  Message
}

func byDest(a, b lossyFrame) int { return a.to - b.to }

// lossyStats is the internal, concurrency-safe form of OmissionStats.
// Collect runs concurrently across receivers, so counters it touches are
// atomics; BackoffSeconds is only written from the serial EndRound loop.
type lossyStats struct {
	retransmits   atomic.Int64
	retxBytes     atomic.Int64
	ackBytes      atomic.Int64
	dupDelivered  atomic.Int64
	dupDropped    atomic.Int64
	reordered     atomic.Int64
	parked        atomic.Int64
	released      atomic.Int64
	fenced        atomic.Int64
	droppedDead   atomic.Int64
	datagramsLost atomic.Int64
	backoffSecond float64
}

func (s *lossyStats) snapshot() OmissionStats {
	return OmissionStats{
		Retransmits:         s.retransmits.Load(),
		RetransmitBytes:     s.retxBytes.Load(),
		AckBytes:            s.ackBytes.Load(),
		DuplicatesDelivered: s.dupDelivered.Load(),
		DuplicatesDropped:   s.dupDropped.Load(),
		Reordered:           s.reordered.Load(),
		Parked:              s.parked.Load(),
		Released:            s.released.Load(),
		Fenced:              s.fenced.Load(),
		DroppedDead:         s.droppedDead.Load(),
		DatagramsLost:       s.datagramsLost.Load(),
		BackoffSeconds:      s.backoffSecond,
	}
}

// lossyBackend decorates a Backend with the lossy channel and the
// reliable-delivery protocol. It shares the Network's byte counters so
// retransmissions, duplicates and acks are priced like any traffic.
type lossyBackend struct {
	inner Backend
	net   *Network
	n     int
	seed  uint64

	// Per-link state, keyed by linkKey. The fate streams are kept apart from
	// the fault probabilities: a link's stream outlives clearing and
	// reinstalling its faults, and the fault map stays small.
	faults map[uint64]linkFaults
	rngs   map[uint64]rng.Source
	cut    map[uint64]bool

	// epochs mirrors the coordinator's membership incarnations; frames
	// are stamped at Send and fenced at Collect against these.
	epochs []uint32

	// datagram, when non-zero, marks one message kind as best-effort: no
	// envelope, no retransmission, no parking — a drop fate or a cut link
	// loses the frame for good, and duplicates arrive twice. This is the
	// channel the gossip failure detector probes over: loss must be able
	// to delay detection, which the reliable protocol would mask.
	datagram Kind

	// Per-link state exists only for links that carried a reliable frame
	// (sequence numbers) or a frame this round (out), so a round costs
	// O(frames) and an idle link costs nothing. A node's sequence map is made
	// when its first reliable frame is stamped or delivered.
	nextSeq  []map[int]uint32 // [from][to] next sequence to stamp
	recvNext []map[int]uint32 // [to][from] next sequence to deliver
	out      [][]lossyFrame   // [from] frames queued this round, in send order
	parked   []lossyFrame

	delay []float64 // per-sender backoff seconds, drained by FinishRound

	stats lossyStats
}

func newLossyBackend(inner Backend, net *Network, seed uint64) *lossyBackend {
	n := net.numNodes
	b := &lossyBackend{
		inner:    inner,
		net:      net,
		n:        n,
		seed:     seed,
		faults:   make(map[uint64]linkFaults),
		rngs:     make(map[uint64]rng.Source),
		cut:      make(map[uint64]bool),
		epochs:   make([]uint32, n),
		nextSeq:  make([]map[int]uint32, n),
		recvNext: make([]map[int]uint32, n),
		out:      make([][]lossyFrame, n),
		delay:    make([]float64, n),
	}
	slab := make([]lossyFrame, queueSlots*n)
	for i := range b.epochs {
		b.epochs[i] = 1
		b.out[i] = slab[queueSlots*i:][:0:queueSlots]
	}
	return b
}

// linkKey packs the directed link from->to into one word, so the per-link
// maps take Go's 8-byte-key fast path.
func linkKey(from, to int) uint64 { return uint64(from)<<32 | uint64(uint32(to)) }

// linkRNG returns the per-link fate stream, created on first use from
// the chaos seed and the link endpoints so every link draws an
// independent deterministic sequence. The caller stores the advanced
// state back; the map holds values so a new link costs no allocation.
func (b *lossyBackend) linkRNG(link uint64) rng.Source {
	if src, ok := b.rngs[link]; ok {
		return src
	}
	from, to := link>>32, uint64(uint32(link))
	return *rng.New(b.seed ^ rng.Hash2(from+1, to+1))
}

// seqMap returns m[node], making it on first use.
func seqMap(m []map[int]uint32, node int) map[int]uint32 {
	if m[node] == nil {
		m[node] = make(map[int]uint32)
	}
	return m[node]
}

// isDatagram reports whether frames of kind k are best-effort.
func (b *lossyBackend) isDatagram(k Kind) bool { return k != 0 && k == b.datagram }

// Send implements Backend: a reliable message is stamped with its envelope
// and queued on the sender-side link; the envelope's wire overhead is
// charged immediately (the base payload was charged by Network.Send).
// Self-sends bypass the protocol: a node cannot lose a frame to itself.
func (b *lossyBackend) Send(to int, m Message) {
	from := m.From
	if from == to {
		b.inner.Send(to, m)
		return
	}
	// Best-effort frames skip the envelope and the sequence space: they are
	// allowed to vanish, so the receiver must not see a gap.
	if !b.isDatagram(m.Kind) {
		m.env = envelope{
			seq:         b.nextSeq[from][to],
			senderEpoch: b.epochs[from],
			recvEpoch:   b.epochs[to],
		}
		seqMap(b.nextSeq, from)[to] = m.env.seq + 1
		b.net.bytesOut[from].Add(envelopeLen)
		b.net.bytesIn[to].Add(envelopeLen)
		b.net.totalOut[from].Add(envelopeLen)
	}
	b.out[from] = append(b.out[from], lossyFrame{to: to, m: m})
}

// EndRound implements Backend: every queued frame of every link from
// `from` meets its channel fate here — parked behind a partition,
// dropped and retransmitted with backoff, duplicated, or held back one
// slot — before the inner round closes. Runs serially per sender (the
// Network's FinishRound loop) and per link in ascending receiver order,
// which makes the RNG draw order, the order backoff seconds are summed in,
// and with them every retransmit count and cost, deterministic.
func (b *lossyBackend) EndRound(from int, failed []bool) {
	q := b.out[from]
	slices.SortStableFunc(q, byDest) // stable: every link keeps its send order
	for i := 0; i < len(q); {
		to, j := q[i].to, i+1
		for j < len(q) && q[j].to == to {
			j++
		}
		b.flushLink(from, to, !failed[to], q[i:j])
		i = j
	}
	clear(q) // the frames are on the wire, parked or lost: drop the buffers
	b.out[from] = q[:0]
	b.inner.EndRound(from, failed)
}

// flushLink transmits one link's round of frames in order.
func (b *lossyBackend) flushLink(from, to int, alive bool, q []lossyFrame) {
	link := linkKey(from, to)
	if b.cut[link] {
		for i := range q {
			if b.isDatagram(q[i].m.Kind) {
				// A datagram in a cut cable is simply gone; parking and
				// re-releasing stale probes on heal would model TCP, not UDP.
				b.stats.datagramsLost.Add(1)
				continue
			}
			b.parked = append(b.parked, q[i])
			b.stats.parked.Add(1)
		}
		return
	}
	if !alive {
		// The receiver was confirmed failed after these frames were
		// queued: fail-stop semantics, the frames go nowhere.
		b.stats.droppedDead.Add(int64(len(q)))
		return
	}
	f := b.faults[link]
	var src *rng.Source
	if !f.none() {
		fates := b.linkRNG(link)
		src = &fates
	}
	retx := false
	var held *lossyFrame
	for i := range q {
		fr := &q[i]
		if src != nil && f.reorder > 0 && held == nil && src.Float64() < f.reorder {
			held = fr
			b.stats.reordered.Add(1)
			continue
		}
		if b.transmit(fr, f, src) {
			retx = true
		}
		if held != nil {
			if b.transmit(held, f, src) {
				retx = true
			}
			held = nil
		}
	}
	if held != nil {
		if b.transmit(held, f, src) {
			retx = true
		}
	}
	if retx {
		// One cumulative ack frame back to the sender closes the round's
		// retransmission window; loss-free rounds piggyback their acks.
		const ackSize = int64(headerBytes + envelopeLen)
		b.net.bytesOut[to].Add(ackSize)
		b.net.bytesIn[from].Add(ackSize)
		b.net.totalOut[to].Add(ackSize)
		b.stats.ackBytes.Add(ackSize)
	}
	if src != nil {
		b.rngs[link] = *src
	}
}

// transmit pushes one frame across the wire, retransmitting a reliable
// frame after every loss with bounded exponential backoff; a datagram's
// first loss is final. Each retry re-charges the frame bytes; the first
// traversal was charged at Send. Reports whether any retransmission
// happened.
func (b *lossyBackend) transmit(fr *lossyFrame, f linkFaults, src *rng.Source) (retx bool) {
	from, to := fr.m.From, fr.to
	datagram := b.isDatagram(fr.m.Kind)
	size := int64(len(fr.m.Payload)) + headerBytes
	if !datagram {
		size += envelopeLen
	}
	if src != nil && f.drop > 0 {
		if datagram {
			if src.Float64() < f.drop {
				b.stats.datagramsLost.Add(1)
				return false
			}
		} else {
			attempt := 1
			for src.Float64() < f.drop {
				attempt++
				if attempt > maxRetxAttempts {
					if b.net.err == nil {
						b.net.err = fmt.Errorf("netsim: link %d->%d lost a frame %d times in a row; drop rate too high", from, to, maxRetxAttempts)
					}
					return retx
				}
				retx = true
				b.stats.retransmits.Add(1)
				b.stats.retxBytes.Add(size)
				b.net.bytesOut[from].Add(size)
				b.net.bytesIn[to].Add(size)
				b.net.totalOut[from].Add(size)
				d := b.net.params.RetxBackoff(attempt - 1)
				b.delay[from] += d
				b.stats.backoffSecond += d
			}
		}
	}
	b.inner.Send(to, fr.m)
	if src != nil && f.dup > 0 && src.Float64() < f.dup {
		b.stats.dupDelivered.Add(1)
		b.net.bytesOut[from].Add(size)
		b.net.bytesIn[to].Add(size)
		b.net.totalOut[from].Add(size)
		b.inner.Send(to, fr.m)
	}
	return retx
}

// Collect implements Backend: fence stale incarnations, deduplicate, and
// restore per-link FIFO order. Every arrival yields at most one delivery, in
// the order it is read, so the result is compacted into the inner backend's
// slice. Safe for one concurrent call per receiver: all state touched is
// indexed by `to`.
func (b *lossyBackend) Collect(to int) []Message {
	raw := b.inner.Collect(to)
	out := raw[:0]
	for i := 0; i < len(raw); {
		from := raw[i].From
		j := i
		for j < len(raw) && raw[j].From == from {
			j++
		}
		if from == to {
			out = append(out, raw[i:j]...)
		} else {
			out = b.deliverRun(to, from, raw[i:j], out)
		}
		i = j
	}
	clear(raw[len(out):])
	return out
}

// deliverRun processes one sender's arrivals for receiver `to`.
func (b *lossyBackend) deliverRun(to, from int, run []Message, out []Message) []Message {
	if b.net.failed[from] {
		// Fail-stop: a currently failed sender's frames are all fenced.
		b.stats.fenced.Add(int64(len(run)))
		return out
	}
	// Datagrams carry no envelope and deliver first, in arrival order. The
	// reliable frames follow in send order: the channel only displaces
	// frames, it never re-stamps them, so sorting by sequence undoes any
	// reordering, and the sort is stable so a duplicate lands right after
	// its original.
	slices.SortStableFunc(run, func(x, y Message) int {
		if dx, dy := b.isDatagram(x.Kind), b.isDatagram(y.Kind); dx != dy {
			if dx {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.env.seq, y.env.seq)
	})
	first := b.recvNext[to][from]
	next := first
	for _, m := range run {
		if b.isDatagram(m.Kind) {
			out = append(out, m)
			continue
		}
		// Split-brain fence: a frame stamped by a superseded incarnation of
		// the sender, or addressed to a previous life of this receiver, is
		// counted and dropped. This is what protects a role rebuilt by
		// Rebirth from a partitioned-but-alive predecessor.
		if m.env.senderEpoch != b.epochs[from] || m.env.recvEpoch != b.epochs[to] {
			b.stats.fenced.Add(1)
			continue
		}
		if m.env.seq < next {
			b.stats.dupDropped.Add(1)
			continue
		}
		// Each sequence number a link stamps reaches this loop (Drain
		// collects too), or is lost with a slot whose new incarnation
		// setEpoch restarts the link for, or was abandoned by transmit,
		// which reports it through Err. So seq == next but for that error.
		next = m.env.seq + 1
		out = append(out, m)
	}
	if next != first {
		seqMap(b.recvNext, to)[from] = next
	}
	return out
}

// Drain implements Backend (rollback discarding a receiver's round): the
// round is collected and thrown away, so its sequence numbers are consumed
// and the link's next round follows on without a hole. Parked frames are
// deliberately untouched: they are in the cable, out of anyone's reach,
// which is exactly why the epoch fence exists.
func (b *lossyBackend) Drain(to int) {
	clear(b.Collect(to))
}

// DrainFrom implements Backend: a revived slot's unsent queues are stale
// state of its previous life and are discarded with the inner backend's
// pending traffic.
func (b *lossyBackend) DrainFrom(from int) {
	clear(b.out[from])
	b.out[from] = b.out[from][:0]
	b.inner.DrainFrom(from)
}

// setEpoch installs a slot's new membership incarnation: sequence state
// on every link touching the slot restarts (the new incarnation opens
// fresh connections), queued frames of the old life are dropped, and any
// partition flags on the slot are cleared — the replacement is new
// hardware, not stuck behind the old cable cut. Parked frames survive;
// the epoch fence disposes of them when they finally arrive.
func (b *lossyBackend) setEpoch(node int, epoch uint64) {
	b.epochs[node] = uint32(epoch)
	clear(b.nextSeq[node])
	clear(b.recvNext[node])
	clear(b.out[node])
	b.out[node] = b.out[node][:0]
	for p := 0; p < b.n; p++ {
		delete(b.nextSeq[p], node)
		delete(b.recvNext[p], node)
		b.out[p] = slices.DeleteFunc(b.out[p], func(fr lossyFrame) bool { return fr.to == node })
		delete(b.cut, linkKey(node, p))
		delete(b.cut, linkKey(p, node))
	}
}

// partition cuts every link between the given set and the rest of the
// cluster, in both directions.
func (b *lossyBackend) partition(nodes []int) {
	inSet := make([]bool, b.n)
	for _, s := range nodes {
		inSet[s] = true
	}
	for _, s := range nodes {
		for t := 0; t < b.n; t++ {
			if inSet[t] {
				continue
			}
			b.cut[linkKey(s, t)] = true
			b.cut[linkKey(t, s)] = true
		}
	}
}

// heal clears the partition around the given set and releases every
// parked frame whose link is no longer cut. Released frames were paid
// for when they were sent; they re-enter the receiver's mailbox and face
// the fence at its next Collect.
func (b *lossyBackend) heal(nodes []int) {
	inSet := make([]bool, b.n)
	for _, s := range nodes {
		inSet[s] = true
	}
	for _, s := range nodes {
		for t := 0; t < b.n; t++ {
			if inSet[t] {
				continue
			}
			delete(b.cut, linkKey(s, t))
			delete(b.cut, linkKey(t, s))
		}
	}
	kept := b.parked[:0]
	for _, pf := range b.parked {
		if b.cut[linkKey(pf.m.From, pf.to)] {
			kept = append(kept, pf)
			continue
		}
		b.stats.released.Add(1)
		if b.net.failed[pf.to] {
			b.stats.droppedDead.Add(1)
			continue
		}
		b.inner.Send(pf.to, pf.m)
	}
	b.parked = kept
}

// takeDelay drains one sender's accumulated backoff seconds.
func (b *lossyBackend) takeDelay(node int) float64 {
	d := b.delay[node]
	b.delay[node] = 0
	return d
}

// setFault updates one probability field of a link's fault config.
func (b *lossyBackend) setFault(from, to int, update func(*linkFaults)) {
	link := linkKey(from, to)
	f := b.faults[link]
	update(&f)
	if f.none() {
		delete(b.faults, link)
		return
	}
	b.faults[link] = f
}

var _ Backend = (*lossyBackend)(nil)

// EnableOmission installs the omission-fault layer over the network's
// backend, seeded for bit-for-bit replay. Idempotent; without this call
// the reliable path runs exactly as before, paying nothing.
func (n *Network) EnableOmission(seed uint64) {
	if n.omission != nil {
		return
	}
	n.omission = newLossyBackend(n.backend, n, seed)
	n.backend = n.omission
}

// OmissionStats snapshots the omission layer's counters; ok is false
// when the layer is not installed.
func (n *Network) OmissionStats() (stats OmissionStats, ok bool) {
	if n.omission == nil {
		return OmissionStats{}, false
	}
	return n.omission.stats.snapshot(), true
}

// SetDatagramKind marks one message kind as best-effort datagrams: the
// lossy channel loses them outright on a drop fate or a cut link instead
// of retransmitting or parking, and delivers injected duplicates as-is.
// Frames of every other kind keep the reliable protocol. Requires
// EnableOmission; the gossip failure detector is the intended user.
func (n *Network) SetDatagramKind(k Kind) {
	n.omission.datagram = k
}

// SetDropRate installs the loss probability of the from->to link
// (0 clears it). Requires EnableOmission.
func (n *Network) SetDropRate(from, to int, p float64) {
	n.omission.setFault(from, to, func(f *linkFaults) { f.drop = p })
}

// SetDupRate installs the duplication probability of the from->to link.
func (n *Network) SetDupRate(from, to int, p float64) {
	n.omission.setFault(from, to, func(f *linkFaults) { f.dup = p })
}

// SetReorderRate installs the reordering probability of the from->to link.
func (n *Network) SetReorderRate(from, to int, p float64) {
	n.omission.setFault(from, to, func(f *linkFaults) { f.reorder = p })
}

// Partition cuts the given node set off from the rest of the cluster:
// frames on severed links are parked in the cable until Heal.
func (n *Network) Partition(nodes []int) {
	n.omission.partition(nodes)
}

// Heal reconnects the given node set and releases parked frames.
func (n *Network) Heal(nodes []int) {
	n.omission.heal(nodes)
}

// SetEpoch records a slot's new membership incarnation for envelope
// stamping and fencing. No-op while the omission layer is disabled
// (epochs are only observable through it).
func (n *Network) SetEpoch(node int, epoch uint64) {
	if n.omission == nil {
		return
	}
	n.omission.setEpoch(node, epoch)
}

// Epoch returns the incarnation the omission layer stamps for a slot
// (1 when the layer is disabled: the first life of every slot).
func (n *Network) Epoch(node int) uint64 {
	if n.omission == nil {
		return 1
	}
	return uint64(n.omission.epochs[node])
}
