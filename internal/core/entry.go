package core

import (
	"slices"

	"imitator/internal/graph"
)

// entryFlags packs a local vertex entry's roles and the Migration work
// pending on it.
type entryFlags uint8

const (
	flagMaster  entryFlags = 1 << iota // this entry is the vertex's master
	flagMirror                         // full-state replica (§4.2)
	flagFTOnly                         // exists only for fault tolerance (§4.1)
	flagSelfish                        // vertex has no out-edges anywhere (§4.4)
	// The recovery-work flags live only on a node's own slots: records and
	// snapshots build their flags from the roles above, never copy these.
	flagStale    // master whose table changed since its mirrors last received it
	flagPromoted // master promoted in the incident Migration has not completed
)

// noNode marks an unset node reference.
const noNode int16 = -1

// noPos marks a vertex absent from a node's id index; noSlab a role a slot
// does not have.
const (
	noPos  int32 = -1
	noSlab int32 = -1
)

// A node's vertex array (§5.1.2) is two position-parallel tables, hot and
// ref, plus the node's topology CSR over the same positions. Masters hold the
// authoritative state; replicas provide local reads; mirrors additionally
// hold the master's full state so they can recover it (§4.2). Entries are
// addressed by array position — a master replicates its position (and its
// replicas' positions) so recovery can place state without coordination —
// and one position names the same vertex in every table.
//
// hot is the slot the superstep phases (compute, sync stage, receive,
// commit) read and write: every fixed-size field, 48 bytes for V = float64.
// A gather's random read of a neighbour touches the slot's first 20 bytes,
// one 64-byte line for three slots in four (at a 48-byte stride the fourth
// straddles a boundary), and the per-phase walks stream a dense array. The
// replication metadata lives in the node's role slabs behind ref. A
// failure-free superstep reads only a master's own table handle and rows,
// its sync destinations; it never reads mirror state.
type hot[V any] struct {
	// Gather reads a neighbour's value and degrees, and its id only when a
	// program calls InEdges.Src: all within the first 20 bytes.
	value V
	id    graph.VertexID
	// Static global degrees, replicated so gather can run anywhere.
	inDeg, outDeg int32

	// masterNode/masterPos locate the vertex's master. For masters they
	// point at the entry itself.
	masterPos int32

	// lastActivate records whether this vertex signaled scatter activation
	// in the superstep lastActivateIter; recovery replays activation from
	// these flags (§5.1.3). A scatter flag is staged and committed in the
	// same superstep, so commit stamps lastActivateIter itself.
	// lastTouchedIter is the superstep whose commit last changed this
	// master's value or activity; log deltas persist only masters touched in
	// the logged superstep. Commit writes all three every superstep, which
	// is why they sit here and not in meta.
	lastActivateIter int32
	lastTouchedIter  int32

	masterNode int16
	flags      entryFlags

	// active: masters — compute this superstep; replicas (vertex-cut) —
	// whether to partial-gather this superstep (mirrors the master's flag).
	active bool

	// Staged state, committed at the global barrier and discarded on
	// rollback (Algorithm 1 line 9).
	hasPending     bool
	pendingActive  bool
	pendingScatter bool
	lastActivate   bool
	pendingValue   V
}

// csr is a node's local topology by array position, as two CSRs: slot i's
// in-edges are inNbr[inStart[i]:inStart[i+1]] with weights inWt over the
// same range, its out-neighbours outNbr[outStart[i]:outStart[i+1]]. The
// in-edges are the vertex's locally-stored ones (all of them for edge-cut
// masters; the local share for vertex-cut); the out-lists name the local
// entries a slot points to, for scatter activation, and are the reverse of
// the in-lists. An unweighted graph stores no inWt (weights). Only load and
// appendEdges write the arrays, each time into fresh ones.
type csr struct {
	inStart, outStart []int32
	inNbr, outNbr     []int32
	inWt              weights
}

// in returns slot i's in-neighbours and their weights.
func (t *csr) in(i int) ([]int32, weights) {
	lo, hi := t.inStart[i], t.inStart[i+1]
	if t.inWt == nil {
		return t.inNbr[lo:hi], nil
	}
	return t.inNbr[lo:hi], t.inWt[lo:hi]
}

// inLen returns slot i's in-degree on this node.
func (t *csr) inLen(i int) int { return int(t.inStart[i+1] - t.inStart[i]) }

// out returns slot i's local out-neighbours.
func (t *csr) out(i int) []int32 { return t.outNbr[t.outStart[i]:t.outStart[i+1]] }

// csrBuilder fills a fresh CSR from edges seen twice in the same order:
// count each, open, put each. Every list then holds its edges in that order.
type csrBuilder struct{ t csr }

func newCSRBuilder(slots, edges int, weighted bool) csrBuilder {
	t := csr{
		inStart: make([]int32, slots+1), outStart: make([]int32, slots+1),
		inNbr: make([]int32, edges), outNbr: make([]int32, edges),
	}
	if weighted {
		t.inWt = make(weights, edges)
	}
	return csrBuilder{t}
}

func (b *csrBuilder) count(sp, dp int32) {
	b.t.inStart[dp+1]++
	b.t.outStart[sp+1]++
}

// open turns the counts, slot i's at start[i+1], into fill cursors: slot i's
// next element goes to start[i].
func (b *csrBuilder) open() {
	for _, start := range [][]int32{b.t.inStart, b.t.outStart} {
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
	}
}

func (b *csrBuilder) putIn(sp, dp int32, wt float64) {
	at := b.t.inStart[dp]
	b.t.inNbr[at] = sp
	if b.t.inWt != nil {
		b.t.inWt[at] = wt
	}
	b.t.inStart[dp]++
}

func (b *csrBuilder) put(sp, dp int32, wt float64) {
	b.putIn(sp, dp, wt)
	b.t.outNbr[b.t.outStart[sp]] = dp
	b.t.outStart[sp]++
}

// done shifts the cursors, each now at its slot's end, back into offsets.
func (b *csrBuilder) done() csr {
	for _, start := range [][]int32{b.t.inStart, b.t.outStart} {
		copy(start[1:], start)
		start[0] = 0
	}
	return b.t
}

// edgeBatch is a run of local edges src[k] -> dst[k] with weight wt.at(k),
// to be attached by appendEdges.
type edgeBatch struct {
	src, dst []int32
	wt       weights
}

func newEdgeBatch(n int) edgeBatch {
	return edgeBatch{src: make([]int32, 0, n), dst: make([]int32, 0, n)}
}

// add appends the edge sp -> dp, materialising the implicit unit weights
// only when wt is not 1.
func (b *edgeBatch) add(sp, dp int32, wt float64) {
	if b.wt == nil && wt != 1 {
		b.wt = make(weights, len(b.src), cap(b.src))
		for k := range b.wt {
			b.wt[k] = 1
		}
	}
	if b.wt != nil {
		b.wt = append(b.wt, wt)
	}
	b.src, b.dst = append(b.src, sp), append(b.dst, dp)
}

// appendEdges attaches batch b to the node's topology. It rebuilds the CSR
// once, into fresh arrays, so tables shared with the pristine copy stay
// intact: every slot keeps its old in- and out-lists as a prefix, then gets
// its batch edges in batch order, the order one append per edge would give.
func (n *node[V, A]) appendEdges(b *edgeBatch) {
	if len(b.src) == 0 {
		return
	}
	old := &n.csr
	bd := newCSRBuilder(len(n.hot), len(old.inNbr)+len(b.src), old.inWt != nil || b.wt != nil)
	for i := range n.hot {
		bd.t.inStart[i+1] = old.inStart[i+1] - old.inStart[i]
		bd.t.outStart[i+1] = old.outStart[i+1] - old.outStart[i]
	}
	for k, dp := range b.dst {
		bd.count(b.src[k], dp)
	}
	bd.open()
	for i := range n.hot {
		nbr, wt := old.in(i)
		for k, sp := range nbr {
			bd.putIn(sp, int32(i), wt.at(k))
		}
		bd.t.outStart[i] += int32(copy(bd.t.outNbr[bd.t.outStart[i]:], old.out(i)))
	}
	for k, dp := range b.dst {
		bd.put(b.src[k], dp, b.wt.at(k))
	}
	n.csr = bd.done()
}

// weights is an edge-weight list parallel to an edge list, where nil means
// every weight is 1: the rule graph.NewFromSOA applies, so an unweighted
// graph's in-edge lists store no weights. Every writer still emits all the
// weights (at), so encodings do not depend on which form a list has.
type weights []float64

// at returns the weight of edge k.
func (w weights) at(k int) float64 {
	if w == nil {
		return 1
	}
	return w[k]
}

// slabRef is a slot's replication metadata: handles into its node's role
// slabs (noSlab = the slot lacks the role). Only a master has a replica table
// and only a mirror a copy of its master's full state, so a plain replica
// pays 8 bytes here. The sync stages read a master's table rows; mirror
// state is read only by FT persistence and by recovery.
type slabRef struct {
	// master indexes node.masters: where the vertex's replicas live and at
	// which positions, which exist only for fault tolerance, and which of
	// them are mirrors (in rank order).
	master int32
	// mirror indexes node.mirrors.
	mirror int32
}

// tableRef is a master-slab entry, and a mirror's copy of its master's: the
// replica table whose rows are rows elements of the node's table arena from
// off, its mirror indexes mirrors elements of the arena's mirrorOf from the
// same offset. A table never has more mirrors than rows, so its range is
// [off, off+rows) in all four arrays.
type tableRef struct {
	off           int32
	rows, mirrors uint16
}

// edgeRef names a mirror's in-edge list: n elements of the node's edge arena
// from off.
type edgeRef struct{ off, n int32 }

// mirrorState is a mirror-slab entry, a mirror's full state (§4.2) by handle,
// 20 bytes: a copy of the master's replica table and, for edge-cut, the
// master's in-edges by global id (vertex-cut recovers edges from edge-ckpt
// files). A mirror's rank is its place in the table copy's mirror indexes,
// where lowestSurvivingMirror reads it.
type mirrorState struct {
	table tableRef
	edges edgeRef
	// slot is the position whose ref.mirror names this entry, so dropMirror
	// can move the slab's last entry into the hole it leaves.
	slot int32
}

func (e *hot[V]) isMaster() bool  { return e.flags&flagMaster != 0 }
func (e *hot[V]) isMirror() bool  { return e.flags&flagMirror != 0 }
func (e *hot[V]) isFTOnly() bool  { return e.flags&flagFTOnly != 0 }
func (e *hot[V]) isSelfish() bool { return e.flags&flagSelfish != 0 }

func (e *hot[V]) info() VertexInfo {
	return VertexInfo{InDeg: e.inDeg, OutDeg: e.outDeg}
}

// clearPending drops staged state (iteration rollback).
func (e *hot[V]) clearPending() {
	var zero V
	e.pendingValue = zero
	e.hasPending = false
	e.pendingActive = false
	e.pendingScatter = false
}

// entryFixedBytes approximates the in-memory cost of one entry excluding
// its slices and the value payload; used for the paper's memory tables.
const entryFixedBytes = 96

// memoryBytes returns the byte-exact modelled footprint of slot i given the
// encoded value size.
func (n *node[V, A]) memoryBytes(i, valueSize int) int64 {
	r := n.ref[i]
	b := int64(entryFixedBytes) + 2*int64(valueSize) // value + pending
	b += int64(n.inLen(i))*12 + int64(len(n.out(i)))*4
	if r.master != noSlab {
		h := n.masters[r.master]
		b += int64(h.rows)*7 + int64(h.mirrors)*2 // node + pos + ftOnly; mirror index
	}
	if r.mirror != noSlab {
		m := &n.mirrors[r.mirror]
		b += int64(m.edges.n) * 14 // src id + weight + src master
		b += int64(m.table.rows)*7 + int64(m.table.mirrors)*2
	}
	return b
}

// newIndex returns an id→position index over numV vertices, all absent.
func newIndex(numV int) []int32 {
	index := make([]int32, numV)
	for v := range index {
		index[v] = noPos
	}
	return index
}

// replicas returns master slot i's replica table, a view into the table
// arena valid until the next arena write.
func (n *node[V, A]) replicas(i int32) replicaTable { return n.tables.at(n.masters[n.ref[i].master]) }

// mirror returns slot i's mirror state, or nil when the slot is no mirror.
// The pointer is valid until the next ensureMirror or dropMirror.
func (n *node[V, A]) mirror(i int32) *mirrorState {
	if h := n.ref[i].mirror; h != noSlab {
		return &n.mirrors[h]
	}
	return nil
}

// at returns the table h names in the table arena t, with cap == len.
func (t *replicaTable) at(h tableRef) replicaTable {
	lo, hi, m := h.off, h.off+int32(h.rows), h.off+int32(h.mirrors)
	return replicaTable{t.nodes[lo:hi:hi], t.pos[lo:hi:hi], t.ftOnly[lo:hi:hi], t.mirrorOf[lo:m:m]}
}

// at returns the list h names in the edge arena e, with cap == len.
func (e *rawEdges) at(h edgeRef) rawEdges {
	lo, hi := h.off, h.off+h.n
	l := rawEdges{src: e.src[lo:hi:hi]}
	if e.wt != nil {
		l.wt = e.wt[lo:hi:hi]
	}
	return l
}

// extend returns s grown by n elements, reallocating only when its capacity
// falls short.
func extend[T any](s []T, n int) []T { return slices.Grow(s, n)[:len(s)+n] }

// growArenas makes room, at once, for rows more table rows and edges more
// in-edges at the arenas' tails.
func (n *node[V, A]) growArenas(rows, edges int) {
	t, e := &n.tables, &n.edges
	t.nodes, t.pos = slices.Grow(t.nodes, rows), slices.Grow(t.pos, rows)
	t.ftOnly, t.mirrorOf = slices.Grow(t.ftOnly, rows), slices.Grow(t.mirrorOf, rows)
	e.src = slices.Grow(e.src, edges)
	if e.wt != nil {
		e.wt = slices.Grow(e.wt, edges)
	}
}

// writeTable stores a copy of t under handle h and returns the new handle:
// over h's own range when t fits in it, else at the arena's tail, leaving
// the old range dead.
func (n *node[V, A]) writeTable(h tableRef, t *replicaTable) tableRef {
	a := &n.tables
	if w := len(t.nodes); w > int(h.rows) {
		h.off = int32(len(a.nodes))
		a.nodes, a.pos, a.ftOnly, a.mirrorOf = extend(a.nodes, w), extend(a.pos, w), extend(a.ftOnly, w), extend(a.mirrorOf, w)
	}
	copy(a.nodes[h.off:], t.nodes)
	copy(a.pos[h.off:], t.pos)
	copy(a.ftOnly[h.off:], t.ftOnly)
	copy(a.mirrorOf[h.off:], t.mirrorOf)
	return tableRef{off: h.off, rows: uint16(len(t.nodes)), mirrors: uint16(len(t.mirrorOf))}
}

// writeEdges stores a copy of l under handle h as writeTable does: in place
// when it fits, else at the edge arena's tail.
func (n *node[V, A]) writeEdges(h edgeRef, l *rawEdges) edgeRef {
	a := &n.edges
	if len(l.src) > int(h.n) {
		h.off = int32(len(a.src))
		a.src = extend(a.src, len(l.src))
		if a.wt != nil {
			a.wt = extend(a.wt, len(l.src))
		}
	}
	h.n = int32(len(l.src))
	copy(a.src[h.off:], l.src)
	if a.wt != nil {
		for k := range l.src {
			a.wt[int(h.off)+k] = l.wt.at(k)
		}
	}
	return h
}

// retainReplicas keeps, in place, the rows of master slot i's table whose
// host keep accepts (replicaTable.retain) and stores the new counts in its
// handle. It reports whether any row went, and marks the slot stale if so.
func (n *node[V, A]) retainReplicas(i int32, keep func(host int16) bool) bool {
	h := &n.masters[n.ref[i].master]
	t := n.tables.at(*h)
	if !t.retain(keep) {
		return false
	}
	h.rows, h.mirrors = uint16(len(t.nodes)), uint16(len(t.mirrorOf))
	n.hot[i].flags |= flagStale
	return true
}

// addRow appends one replica row to master slot i's table and marks the slot
// stale. A table that does not end at the arena's tail is first copied
// there, its old range left dead; one that does grows in place.
func (n *node[V, A]) addRow(i int32, host int16, pos int32, ftOnly bool) {
	n.hot[i].flags |= flagStale
	h := &n.masters[n.ref[i].master]
	a := &n.tables
	if tail := len(a.nodes); int(h.off)+int(h.rows) != tail {
		t := a.at(*h)
		*h = n.writeTable(tableRef{off: int32(tail)}, &t)
	}
	a.nodes, a.pos, a.ftOnly, a.mirrorOf = extend(a.nodes, 1), extend(a.pos, 1), extend(a.ftOnly, 1), extend(a.mirrorOf, 1)
	at := h.off + int32(h.rows)
	a.nodes[at], a.pos[at], a.ftOnly[at] = host, pos, ftOnly
	h.rows++
}

// setMirrors replaces master slot i's mirror indexes with mo, which may
// name at most as many as the table has rows, in place.
func (n *node[V, A]) setMirrors(i int32, mo []int16) {
	h := &n.masters[n.ref[i].master]
	copy(n.tables.mirrorOf[h.off:h.off+int32(h.rows)], mo)
	h.mirrors = uint16(len(mo))
}

// promoteTable gives mirror slot i, promoted to master, its copy of the
// replica table as its own by moving the handle: the rows stay where they
// are. The mirror indexes go (FT repair re-selects them), and so do the
// rows keep rejects.
func (n *node[V, A]) promoteTable(i int32, keep func(host int16) bool) {
	m := n.mirror(i)
	h := m.table
	h.mirrors = 0
	m.table = tableRef{}
	n.ref[i].master = int32(len(n.masters))
	n.masters = append(n.masters, h)
	n.retainReplicas(i, keep)
}

// landRecords stores one round of recovery records' replica tables (a
// master's own, a mirror's copy) and mirror in-edge lists in the arenas
// under their slots' handles (writeTable, writeEdges). A count pass sums
// what does not fit in place, so each arena grows at most once. Every
// record's slot must already have its role-slab entries; a master record's
// in-edges are topology, which the caller attaches.
func (n *node[V, A]) landRecords(recs []recoveryRecord[V]) {
	rows, edges := 0, 0
	for k := range recs {
		r := &recs[k]
		th, eh := n.handles(r)
		if th != nil && r.table != nil && len(r.table.nodes) > int(th.rows) {
			rows += len(r.table.nodes)
		}
		if eh != nil && r.edges != nil && len(r.edges.src) > int(eh.n) {
			edges += len(r.edges.src)
		}
	}
	n.growArenas(rows, edges)
	for k := range recs {
		r := &recs[k]
		th, eh := n.handles(r)
		if th != nil && r.table != nil {
			*th = n.writeTable(*th, r.table)
		}
		if eh != nil && r.edges != nil {
			*eh = n.writeEdges(*eh, r.edges)
		}
	}
}

// handles returns the arena handles record r's slot keeps: a master's table,
// a mirror's copy of it and its in-edges; nil for what the slot lacks.
func (n *node[V, A]) handles(r *recoveryRecord[V]) (*tableRef, *edgeRef) {
	if r.slot.isMaster() {
		return &n.masters[n.ref[r.pos].master], nil
	}
	if m := n.mirror(r.pos); m != nil {
		return &m.table, &m.edges
	}
	return nil, nil
}

// flagged ranges over the positions of the slots that carry flag f,
// ascending.
func (n *node[V, A]) flagged(f entryFlags) func(yield func(int32) bool) {
	return func(yield func(int32) bool) {
		for i := range n.hot {
			if n.hot[i].flags&f != 0 && !yield(int32(i)) {
				return
			}
		}
	}
}

// clearFlag takes flag f off every slot.
func (n *node[V, A]) clearFlag(f entryFlags) {
	for i := range n.hot {
		n.hot[i].flags &^= f
	}
}

// ensureMirror returns slot i's mirror state, creating an empty one for a
// replica that has just been selected as a mirror.
func (n *node[V, A]) ensureMirror(i int32) *mirrorState {
	if m := n.mirror(i); m != nil {
		return m
	}
	n.ref[i].mirror = int32(len(n.mirrors))
	n.mirrors = append(n.mirrors, mirrorState{slot: i})
	return &n.mirrors[len(n.mirrors)-1]
}

// dropMirror releases slot i's mirror state (demotion, or a promoted master
// whose in-edges are attached). The slab's last entry moves into the hole, so
// the slab never holds an entry no slot names.
func (n *node[V, A]) dropMirror(i int32) {
	h := n.ref[i].mirror
	if h == noSlab {
		return
	}
	last := int32(len(n.mirrors) - 1)
	if h != last {
		n.mirrors[h] = n.mirrors[last]
		n.ref[n.mirrors[h].slot].mirror = h
	}
	n.mirrors[last] = mirrorState{}
	n.mirrors = n.mirrors[:last]
	n.ref[i].mirror = noSlab
}

// allocSlabs numbers, in slot order, a master-slab entry for every slot
// flagged master and a mirror-slab entry for every slot flagged mirror, and
// sizes both slabs exactly. Load and Rebirth call it once the role flags are
// final and before a parallel fill writes the entries, so the fill never
// grows a slab.
func (n *node[V, A]) allocSlabs() {
	var masters, mirrors int32
	for i := range n.hot {
		r := slabRef{master: noSlab, mirror: noSlab}
		if n.hot[i].isMaster() {
			r.master, masters = masters, masters+1
		}
		if n.hot[i].isMirror() {
			r.mirror, mirrors = mirrors, mirrors+1
		}
		n.ref[i] = r
	}
	n.masters = make([]tableRef, masters)
	n.mirrors = make([]mirrorState, mirrors)
	for i := range n.ref {
		if h := n.ref[i].mirror; h != noSlab {
			n.mirrors[h].slot = int32(i)
		}
	}
}
