// Package gossip implements a seeded, fully deterministic SWIM-style
// failure detector: periodic ping / ping-req(k) indirect probing,
// piggybacked membership dissemination with incarnation numbers, and
// suspicion timeouts. It runs over a netsim lossy network in best-effort
// datagram mode (SetDatagramKind), so drop/dup/reorder/partition chaos
// applies to the detector's own traffic — a dropped ack is genuinely
// lost, not retransmitted.
//
// Determinism contract: all randomness flows from Params.Seed through
// per-node internal/rng sources; every loop over nodes runs in ascending
// id order; no wall clock, no goroutines. Two detectors built with the
// same parameters and driven through the same Fail/Revive/RunPeriod
// sequence produce bit-identical state and traffic.
//
// Deviations from the SWIM paper, both to keep revival sound in a
// simulator that reuses node ids: (1) confirm ("dead") updates are
// incarnation-checked instead of overriding unconditionally, so a stale
// confirm cannot re-kill a node that rejoined at a higher incarnation;
// (2) Revive is coordinator-assisted — it installs the rejoined member
// in every view at a fresh incarnation, modeling the rebirth path where
// the replacement node is announced out of band.
package gossip

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"imitator/internal/costmodel"
	"imitator/internal/netsim"
	"imitator/internal/rng"
)

// Params configures a Detector. The zero value of each field selects the
// documented default.
type Params struct {
	// Seed drives every random choice (probe order shuffles, indirect
	// helper picks) via internal/rng.
	Seed uint64
	// PeriodSeconds is the simulated duration of one protocol period.
	// Default 0.5 (the cost model's heartbeat interval).
	PeriodSeconds float64
}

// Protocol constants: indirectProbes is SWIM's k, the ping-req helpers
// asked to probe an unresponsive target indirectly; maxPiggyback caps the
// membership updates piggybacked on one datagram.
const (
	indirectProbes = 3
	maxPiggyback   = 8
)

// suspicionPeriods is how many full periods a member stays suspected
// before the suspicion is locally confirmed as a failure. It scales with
// the cluster so a refutation rumor can make the round trip before the
// timeout: ceil(4*log10(n+1)) periods, at least 3 — the suspicion
// multiplier used by production SWIM implementations.
func suspicionPeriods(n int) int {
	return max(3, int(math.Ceil(4*math.Log10(float64(n)+1))))
}

// member is one row of a node's local membership view: 8 bytes, and a
// detector holds n² of them. word packs three fields, read and written
// through the methods below:
//   - since, bits 0-28: the period of the last status change (the suspicion
//     timer base), so periods stop at maxPeriod (see RunPeriod);
//   - status, bits 29-30: UpdAlive, UpdSuspect, or UpdConfirm;
//   - final, bit 31: an expired suspicion awaiting its confirm-before-kill
//     probe. The owner must get one dedicated direct/indirect probe of this
//     member before the suspicion may be confirmed. A first-hand ack
//     restarts the suspicion window instead, giving the (incarnation-gated)
//     refutation rumor more time to arrive.
type member struct {
	inc  uint32
	word uint32
}

const (
	sinceBits   = 29
	maxPeriod   = 1<<sinceBits - 1
	statusShift = sinceBits
	statusMask  = 3 << statusShift
	finalBit    = 1 << 31
)

func newMember(inc uint32, status UpdateKind, period int) member {
	return member{inc: inc, word: uint32(status)<<statusShift | uint32(period)}
}

func (m member) since() int         { return int(m.word & maxPeriod) }
func (m member) status() UpdateKind { return UpdateKind(m.word & statusMask >> statusShift) }
func (m member) final() bool        { return m.word&finalBit != 0 }

// restart stamps a status change at period: a new suspicion timer base, and
// no confirm-before-kill probe owed.
func (m *member) restart(period int) { m.word = m.word&statusMask | uint32(period) }

func (m *member) markFinal() { m.word |= finalBit }

// queued is one dissemination-queue entry: an update plus its remaining
// transmission budget (SWIM's "gossip at most O(log n) times").
type queued struct {
	upd  Update
	left int
}

// Initial per-member capacities (see New). With loss around 32 of 1024
// members a queue peaks at 29 entries and a suspect list at 8.
const (
	queueSlots   = 32
	suspectSlots = 8
)

// outMsg is a datagram staged for the next sub-round flush: the encoded
// bytes stageBuf[off:end].
type outMsg struct {
	from, to, off, end int
}

func bySender(a, b outMsg) int { return a.from - b.from }

// node is the per-process protocol state. Member ids are int32, the width
// the wire carries them at.
type node struct {
	id       int
	src      rng.Source
	view     []member
	suspects []int32 // ids this view holds in UpdSuspect, ascending; see setStatus
	order    []int32 // shuffled probe schedule; reshuffled on wraparound
	next     int
	selfInc  uint32
	queue    []queued
	target   int  // this period's direct-probe target, -1 if none
	isFinal  bool // target is a confirm-before-kill probe of a suspect
	gotAck   bool
}

// setStatus changes how nd classifies j and keeps nd.suspects in step, so
// the per-period suspicion scans touch suspects only.
func (nd *node) setStatus(j int, status UpdateKind) {
	mv := &nd.view[j]
	if was, is := mv.status() == UpdSuspect, status == UpdSuspect; was != is {
		i, _ := slices.BinarySearch(nd.suspects, int32(j))
		if is {
			nd.suspects = slices.Insert(nd.suspects, i, int32(j))
		} else {
			nd.suspects = slices.Delete(nd.suspects, i, i+1)
		}
	}
	mv.word = mv.word&^statusMask | uint32(status)<<statusShift
}

// Stats summarizes detector activity since construction.
type Stats struct {
	// Periods is the number of completed protocol periods.
	Periods int
	// FalseSuspicions counts probe-originated suspicions of nodes that
	// were up (ground truth) at the moment of suspicion.
	FalseSuspicions int
	// Messages is the total datagrams sent (before loss).
	Messages int64
	// Bytes is the total simulated network bytes, headers included.
	Bytes int64
}

// Detector simulates n SWIM members over one lossy network.
type Detector struct {
	n      int
	p      Params
	net    *netsim.Network
	nodes  []node
	up     []bool // ground truth
	period int
	budget int // per-update transmission budget: 3*ceil(log2(n+1))
	susp   int // suspicion timeout in periods, suspicionPeriods(n)

	// First-observer confirm tracking: a node id is appended exactly once
	// per life (reset by Revive) when any view first confirms it.
	everConfirmed []bool
	confirms      []int

	falseSuspicions int
	messages        int64
	wireErr         error // first undecodable datagram, received by wireErrNode
	wireErrNode     int
	periodErr       error // RunPeriod was called at maxPeriod

	// outbox is every member's staged datagrams and stageBuf their encoded
	// bytes. A datagram is delivered in the sub-round it is flushed in or
	// never (lost ones are not parked), so flush swaps the two buffers and
	// wireBuf — the one flushed a sub-round ago — is free to stage into again.
	outbox            []outMsg
	stageBuf, wireBuf []byte

	// Per-call scratch, retained so a steady period allocates nothing.
	rx    Message  // deliver's decoded datagram
	upd   []Update // stage's piggyback selection
	cands []int32  // stagePingReqs' helper candidates
}

// New builds a detector for n members, all initially alive, over a fresh
// lossy netsim network (omission enabled, control frames in datagram
// mode). Chaos — drop rates, partitions — is injected through Net.
//
// The state is a fixed number of slabs whatever n: the n² view rows at 8
// bytes each, the n² probe-schedule ids at 4 bytes each, the nodes with
// their RNG sources, and the queue and suspect-list room below, so New's
// allocation count does not grow with n and its bytes grow as 12·n². The
// network's link table is made on the first fault or cut, not here.
func New(n int, p Params) (*Detector, error) {
	if n < 2 {
		return nil, fmt.Errorf("gossip: need at least 2 nodes, got %d", n)
	}
	if p.PeriodSeconds <= 0 {
		p.PeriodSeconds = 0.5
	}
	net, err := netsim.New(n, costmodel.Default())
	if err != nil {
		return nil, err
	}
	net.EnableOmission(p.Seed)
	net.SetDatagramKind(netsim.KindControl)
	d := &Detector{
		n:             n,
		p:             p,
		net:           net,
		nodes:         make([]node, n),
		up:            make([]bool, n),
		budget:        3 * (bits.Len(uint(n)) + 1),
		susp:          suspicionPeriods(n),
		everConfirmed: make([]bool, n),
	}
	// Every member's view and probe schedule are rows of two n×n slabs; its
	// dissemination queue and suspect list start with room for a busy period,
	// carved from two more, so a run grows few of them.
	views := make([]member, n*n)
	orders := make([]int32, n*n)
	queues := make([]queued, n*queueSlots)
	suspects := make([]int32, n*suspectSlots)
	for i := range views {
		views[i] = newMember(0, UpdAlive, 0)
	}
	for id := range d.nodes {
		nd := &d.nodes[id]
		*nd = node{
			id:       id,
			src:      *rng.New(p.Seed ^ rng.Hash2(uint64(id)+1, 0x5157494d)),
			view:     views[id*n:][:n:n],
			order:    orders[id*n:][:n:n],
			queue:    queues[id*queueSlots:][:0:queueSlots],
			suspects: suspects[id*suspectSlots:][:0:suspectSlots],
			target:   -1,
		}
		nd.resetOrder()
		d.up[id] = true
	}
	return d, nil
}

// Net exposes the detector's network for chaos injection (drop rates,
// partitions) and byte accounting.
func (d *Detector) Net() *netsim.Network { return d.net }

// PeriodSeconds reports the simulated duration of one protocol period.
func (d *Detector) PeriodSeconds() float64 { return d.p.PeriodSeconds }

// SuspicionPeriods reports the suspicion timeout in periods.
func (d *Detector) SuspicionPeriods() int { return d.susp }

// Period reports the number of completed protocol periods.
func (d *Detector) Period() int { return d.period }

// Up reports ground truth for id.
func (d *Detector) Up(id int) bool { return d.up[id] }

// Fail marks id crashed (ground truth): it stops probing, answering, and
// gossiping, and the network drops its traffic, exactly like a failed
// worker in the engine.
func (d *Detector) Fail(id int) {
	d.up[id] = false
	d.net.SetFailed(id, true)
}

// Revive rejoins id with coordinator assistance: a fresh incarnation
// above anything any view has seen is installed everywhere, queued
// updates about id are purged, and first-observer tracking resets so the
// next failure of id is detected anew. This models the engine's rebirth
// announcement rather than SWIM's organic join.
func (d *Detector) Revive(id int) {
	d.up[id] = true
	d.net.SetFailed(id, false)
	var maxInc uint32
	for i := range d.nodes {
		maxInc = max(maxInc, d.nodes[i].view[id].inc)
	}
	inc := max(maxInc, d.nodes[id].selfInc) + 1
	for i := range d.nodes {
		nd := &d.nodes[i]
		nd.setStatus(id, UpdAlive)
		nd.view[id] = newMember(inc, UpdAlive, d.period)
		q := nd.queue[:0]
		for _, e := range nd.queue {
			if int(e.upd.Node) != id {
				q = append(q, e)
			}
		}
		nd.queue = q
	}
	d.nodes[id].selfInc = inc
	d.everConfirmed[id] = false
}

// ForceConfirm marks id failed in every view immediately, bypassing the
// protocol. The core detector seam uses it as a liveness backstop when
// chaos (e.g. a full partition) keeps gossip from converging in bounded
// periods.
func (d *Detector) ForceConfirm(id int) {
	for i := range d.nodes {
		nd := &d.nodes[i]
		if i == id {
			continue
		}
		if nd.view[id].status() != UpdConfirm {
			nd.setStatus(id, UpdConfirm)
			nd.view[id].restart(d.period)
		}
	}
	if !d.everConfirmed[id] {
		d.everConfirmed[id] = true
		d.confirms = append(d.confirms, id)
	}
}

// StatusAt reports how observer currently classifies id. A node always
// considers itself alive.
func (d *Detector) StatusAt(observer, id int) UpdateKind {
	if observer == id {
		return UpdAlive
	}
	return d.nodes[observer].view[id].status()
}

// TakeConfirms drains the ids whose first confirmation (by any view,
// this life) happened since the last call.
func (d *Detector) TakeConfirms() []int {
	s := d.confirms
	d.confirms = nil
	return s
}

// Stats summarizes detector activity so far.
func (d *Detector) Stats() Stats {
	return Stats{
		Periods:         d.period,
		FalseSuspicions: d.falseSuspicions,
		Messages:        d.messages,
		Bytes:           d.net.TotalBytes(),
	}
}

// Err surfaces any network or codec error recorded during simulation, and a
// run that reached the last period a view row can stamp. Network and codec
// errors indicate a simulator bug: the closed system never produces genuinely
// malformed frames.
func (d *Detector) Err() error {
	if err := d.net.Err(); err != nil {
		return err
	}
	if d.periodErr != nil {
		return d.periodErr
	}
	if d.wireErr != nil {
		return fmt.Errorf("gossip: node %d: %w", d.wireErrNode, d.wireErr)
	}
	return nil
}

// Close is a no-op kept for callers that release detectors explicitly; the
// in-memory network holds nothing to release.
func (d *Detector) Close() error { return nil }

// RunPeriod advances the protocol by one period: every up node runs one
// direct probe, escalating to ping-req(k) indirect probing on silence,
// across six lockstep sub-rounds (ping, ack, ping-req, indirect ping,
// indirect ack, forwarded ack); then probe outcomes and suspicion
// timeouts are folded into each local view. No step walks the n² view rows or
// links: a period costs O(n + suspects), O(queue) per datagram and O(n) per
// unanswered probe or probe-schedule wraparound. Once its buffers have grown
// it allocates nothing but the omission layer's entries for lossy links that
// carry their first datagram. A view row stamps periods up to maxPeriod, so
// at that period RunPeriod runs nothing and reports the limit through Err.
func (d *Detector) RunPeriod() {
	if d.period >= maxPeriod {
		if d.periodErr == nil {
			d.periodErr = fmt.Errorf("gossip: period %d is the last a view row can stamp", d.period)
		}
		return
	}
	d.startPeriod()
	for sub := 0; sub < 6; sub++ {
		d.flush()
		d.net.FinishRound()
		d.deliver()
		if sub == 1 {
			// Direct acks are in; silent probes escalate to ping-req(k).
			d.stagePingReqs()
		}
	}
	d.endPeriod()
	d.period++
}

// startPeriod picks each up node's probe target and stages the ping.
func (d *Detector) startPeriod() {
	for id := 0; id < d.n; id++ {
		nd := &d.nodes[id]
		nd.target = -1
		nd.isFinal = false
		nd.gotAck = false
		if !d.up[id] {
			continue
		}
		t := nd.pickFinal()
		if t < 0 {
			t = nd.pickTarget(d.n)
		} else {
			nd.isFinal = true
		}
		if t < 0 {
			continue
		}
		nd.target = t
		d.stage(nd, t, MsgPing, 0)
	}
}

// pickFinal selects the most overdue expired suspicion owed a
// confirm-before-kill probe: lowest since, then lowest id — one per
// period, so simultaneous timeouts drain deterministically.
func (nd *node) pickFinal() int {
	best := -1
	for _, j := range nd.suspects {
		mv := &nd.view[j]
		if !mv.final() {
			continue
		}
		if best < 0 || mv.since() < nd.view[best].since() {
			best = int(j)
		}
	}
	return best
}

// resetOrder refills the probe schedule with every id and shuffles it,
// drawing what rng.Source.Perm(n) draws.
func (nd *node) resetOrder() {
	for i := range nd.order {
		nd.order[i] = int32(i)
	}
	rng.Shuffle(&nd.src, nd.order)
	nd.next = 0
}

// pickTarget advances the shuffled round-robin schedule past self and
// confirmed-dead members, reshuffling on wraparound.
func (nd *node) pickTarget(n int) int {
	for tries := 0; tries < n; tries++ {
		if nd.next >= len(nd.order) {
			nd.resetOrder()
		}
		t := int(nd.order[nd.next])
		nd.next++
		if t != nd.id && nd.view[t].status() != UpdConfirm {
			return t
		}
	}
	return -1
}

// stagePingReqs fans each unanswered probe out to k indirect helpers: the
// first k of a full shuffle of the candidates, which is what the node's RNG
// stream has always been charged for.
func (d *Detector) stagePingReqs() {
	for id := 0; id < d.n; id++ {
		nd := &d.nodes[id]
		if !d.up[id] || nd.target < 0 || nd.gotAck {
			continue
		}
		cands := d.cands[:0]
		for j := 0; j < d.n; j++ {
			if j != id && j != nd.target && nd.view[j].status() != UpdConfirm {
				cands = append(cands, int32(j))
			}
		}
		d.cands = cands
		rng.Shuffle(&nd.src, cands)
		for i := 0; i < len(cands) && i < indirectProbes; i++ {
			d.stage(nd, int(cands[i]), MsgPingReq, int32(nd.target))
		}
	}
}

// stage queues a message from nd for the next flush, attaching up to
// maxPiggyback updates from the dissemination queue and retiring entries
// whose transmission budget is spent.
func (d *Detector) stage(nd *node, to int, kind MsgKind, about int32) {
	// Least-transmitted first (SWIM §4.1): fresh updates — new suspicions
	// and, critically, refutations — outrank rumors that have already had
	// their airtime, so they never starve behind a long queue. The sort is
	// stable, so equal budgets keep queue order and stay deterministic; it is
	// an insertion sort that moves only an entry out of order, because the
	// last stage left the queue sorted but for the few entries it sent and
	// any update queued since.
	q := nd.queue
	for i := 1; i < len(q); i++ {
		e := q[i]
		if q[i-1].left >= e.left {
			continue
		}
		j := i
		for ; j > 0 && q[j-1].left < e.left; j-- {
			q[j] = q[j-1]
		}
		q[j] = e
	}
	// Every queued entry has budget left (queueUpdate starts it at
	// d.budget, and a spent one leaves below), so only an entry sent here
	// can run out, and the queue is compacted only then.
	upd := d.upd[:0]
	spent := false
	for i := range min(len(q), maxPiggyback) {
		upd = append(upd, q[i].upd)
		q[i].left--
		spent = spent || q[i].left == 0
	}
	d.upd = upd
	if spent {
		nd.queue = slices.DeleteFunc(q, func(e queued) bool { return e.left == 0 })
	}
	off := len(d.stageBuf)
	d.stageBuf = AppendMessage(d.stageBuf, &Message{Kind: kind, From: int32(nd.id), About: about, Updates: upd})
	d.outbox = append(d.outbox, outMsg{from: nd.id, to: to, off: off, end: len(d.stageBuf)})
}

// flush sends every staged message in ascending node order, each member's
// in the order it staged them.
func (d *Detector) flush() {
	slices.SortStableFunc(d.outbox, bySender)
	for _, om := range d.outbox {
		d.net.Send(om.from, om.to, netsim.KindControl, d.stageBuf[om.off:om.end])
	}
	d.messages += int64(len(d.outbox))
	d.outbox = d.outbox[:0]
	d.stageBuf, d.wireBuf = d.wireBuf[:0], d.stageBuf
}

// deliver drains every inbox in ascending node order, folds piggybacked
// updates into the receiver's view, and runs the probe state machine.
func (d *Detector) deliver() {
	for id := 0; id < d.n; id++ {
		msgs := d.net.Receive(id)
		if !d.up[id] {
			continue
		}
		nd := &d.nodes[id]
		for _, raw := range msgs {
			if raw.Kind != netsim.KindControl {
				continue
			}
			if err := d.rx.decode(raw.Payload); err != nil {
				if d.wireErr == nil {
					d.wireErr, d.wireErrNode = err, id
				}
				continue
			}
			d.applyUpdates(nd, &d.rx)
			d.handle(nd, &d.rx)
		}
	}
}

// handle runs the probe state machine for one received message.
func (d *Detector) handle(nd *node, m *Message) {
	from := int(m.From)
	switch m.Kind {
	case MsgPing:
		nd.stageReply(d, from, MsgAck, 0)
	case MsgAck:
		if nd.target == from {
			nd.gotAck = true
		}
	case MsgPingReq:
		// Probe m.About on behalf of from.
		nd.stageReply(d, int(m.About), MsgIndPing, m.From)
	case MsgIndPing:
		// m.About is the origin; answer the helper, naming the origin.
		nd.stageReply(d, from, MsgIndAck, m.About)
	case MsgIndAck:
		// Relay the answer to the origin, naming the target that spoke.
		nd.stageReply(d, int(m.About), MsgFwdAck, m.From)
	case MsgFwdAck:
		if nd.target == int(m.About) {
			nd.gotAck = true
		}
	}
}

// stageReply validates the destination (duplicated or fuzzed frames may
// name anything) before staging.
func (nd *node) stageReply(d *Detector, to int, kind MsgKind, about int32) {
	if to < 0 || to >= d.n || to == nd.id {
		return
	}
	d.stage(nd, to, kind, about)
}

// endPeriod turns silent probes into suspicions and expired suspicions
// into confirmations.
func (d *Detector) endPeriod() {
	for id := 0; id < d.n; id++ {
		nd := &d.nodes[id]
		if !d.up[id] {
			continue
		}
		if t := nd.target; t >= 0 && !nd.gotAck && nd.view[t].status() == UpdAlive {
			d.transition(nd, Update{Kind: UpdSuspect, Node: int32(t), Inc: nd.view[t].inc}, true)
		}
		// Resolve a completed confirm-before-kill probe: a failed final
		// probe confirms the suspect; a first-hand (direct or indirect)
		// ack restarts its suspicion window instead. The restart is
		// local-only — without the suspect's own incarnation bump there
		// is nothing sound to gossip.
		if t := nd.target; t >= 0 && nd.isFinal && nd.view[t].status() == UpdSuspect {
			mv := &nd.view[t]
			if nd.gotAck {
				mv.restart(d.period)
			} else {
				d.transition(nd, Update{Kind: UpdConfirm, Node: int32(t), Inc: mv.inc}, false)
			}
		}
		// Expired suspicions don't confirm outright: they queue for a
		// confirm-before-kill probe (Lifeguard's final check), which a
		// live suspect survives even when its refutation rumor lost the
		// dissemination race.
		for _, j := range nd.suspects {
			mv := &nd.view[j]
			if !mv.final() && d.period-mv.since() >= d.susp {
				mv.markFinal()
			}
		}
	}
}

// queueUpdate enqueues u for dissemination from nd, superseding any
// queued update about the same node.
func (d *Detector) queueUpdate(nd *node, u Update) {
	for i := range nd.queue {
		if nd.queue[i].upd.Node == u.Node {
			nd.queue[i] = queued{upd: u, left: d.budget}
			return
		}
	}
	nd.queue = append(nd.queue, queued{upd: u, left: d.budget})
}

// applyUpdates folds a message's piggybacked updates into nd's view,
// including self-refutation.
func (d *Detector) applyUpdates(nd *node, m *Message) {
	for _, u := range m.Updates {
		j := int(u.Node)
		if j < 0 || j >= d.n {
			continue
		}
		if j == nd.id {
			// Refutation: someone thinks we are suspect or dead. If the
			// rumor's incarnation is current, outbid it and gossip that
			// we are alive.
			if u.Kind != UpdAlive && u.Inc >= nd.selfInc {
				nd.selfInc = u.Inc + 1
				d.queueUpdate(nd, Update{Kind: UpdAlive, Node: int32(nd.id), Inc: nd.selfInc})
			}
			continue
		}
		d.transition(nd, u, false)
	}
}

// transition applies one membership statement to nd's view of u.Node
// under SWIM's precedence rules — alive needs a strictly newer
// incarnation, suspect wins ties against alive, confirm is
// incarnation-checked (see the package comment) — and re-disseminates on
// change. originated marks a suspicion born from nd's own failed probe,
// which is what the false-suspicion metric counts.
func (d *Detector) transition(nd *node, u Update, originated bool) {
	j := int(u.Node)
	mv := &nd.view[j]
	changed := false
	switch u.Kind {
	case UpdAlive:
		if mv.status() != UpdConfirm && u.Inc > mv.inc {
			nd.setStatus(j, UpdAlive)
			mv.inc = u.Inc
			mv.restart(d.period)
			changed = true
		}
	case UpdSuspect:
		if mv.status() != UpdConfirm &&
			(u.Inc > mv.inc || (u.Inc == mv.inc && mv.status() == UpdAlive)) {
			nd.setStatus(j, UpdSuspect)
			mv.inc = u.Inc
			mv.restart(d.period)
			changed = true
			if originated && d.up[j] {
				d.falseSuspicions++
			}
		}
	case UpdConfirm:
		if mv.status() != UpdConfirm && u.Inc >= mv.inc {
			nd.setStatus(j, UpdConfirm)
			mv.restart(d.period)
			changed = true
			if !d.everConfirmed[j] {
				d.everConfirmed[j] = true
				d.confirms = append(d.confirms, j)
			}
		}
	}
	if changed {
		d.queueUpdate(nd, Update{Kind: mv.status(), Node: int32(j), Inc: mv.inc})
	}
}
