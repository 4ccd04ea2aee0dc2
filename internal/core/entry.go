package core

import (
	"imitator/internal/graph"
)

// entryFlags packs a local vertex entry's roles.
type entryFlags uint8

const (
	flagMaster  entryFlags = 1 << iota // this entry is the vertex's master
	flagMirror                         // full-state replica (§4.2)
	flagFTOnly                         // exists only for fault tolerance (§4.1)
	flagSelfish                        // vertex has no out-edges anywhere (§4.4)
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
// commit) read and write: every fixed-size field, 56 bytes for V = float64.
// A gather's random read of a neighbour touches the slot's first 20 bytes,
// one 64-byte line for six slots in eight (at a 56-byte stride the other two
// straddle a boundary), and the per-phase walks stream a dense array. The
// replication metadata lives in the node's role slabs behind ref, which a
// failure-free superstep never touches.
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

	// pendingScatterI stamps the staged scatter flag with its superstep.
	pendingScatterI int32
	// lastActivate records whether this vertex signaled scatter activation
	// in the superstep lastActivateIter; recovery replays activation from
	// these flags (§5.1.3). lastTouchedIter is the superstep whose commit
	// last changed this master's value or activity; log deltas persist only
	// masters touched in the logged superstep.
	// Commit writes all three every superstep, which is why they sit here
	// and not in meta.
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
	n.routeDirty = true // the scatter route flattens the out-lists
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
// pays 8 bytes here. The slabs are read only when a replica table is
// flattened into a sync route, by FT persistence and by recovery.
type slabRef struct {
	// master indexes node.masters: where the vertex's replicas live and at
	// which positions, which exist only for fault tolerance, and which of
	// them are mirrors (in rank order).
	master int32
	// mirror indexes node.mirrors.
	mirror int32
}

// mirrorState is a mirror's full state (§4.2): a copy of the master's replica
// table and, for edge-cut, the master's in-edges by global id with each
// source's master node (vertex-cut recovers edges from edge-ckpt files).
type mirrorState struct {
	mTable replicaTable
	mEdges rawEdges
	rank   int16 // this mirror's rank; lowest surviving rank recovers
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
	e.pendingScatterI = 0
}

// carve cuts the next n elements off *arena with cap == len.
func carve[T any](arena *[]T, n int) []T {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// carveCopy carves a copy of src.
func carveCopy[T any](arena *[]T, src []T) []T {
	s := carve(arena, len(src))
	copy(s, src)
	return s
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
		rt := &n.masters[r.master]
		b += int64(len(rt.nodes))*7 + int64(len(rt.mirrorOf))*2 // node + pos + ftOnly; mirror index
	}
	if r.mirror != noSlab {
		m := &n.mirrors[r.mirror]
		b += int64(len(m.mEdges.src)) * 14 // src id + weight + src master
		b += int64(len(m.mTable.nodes))*7 + int64(len(m.mTable.mirrorOf))*2
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

// replicas returns master slot i's replica table. The pointer is valid until
// the next addMaster.
func (n *node[V, A]) replicas(i int32) *replicaTable { return &n.masters[n.ref[i].master] }

// mirror returns slot i's mirror state, or nil when the slot is no mirror.
// The pointer is valid until the next ensureMirror or dropMirror.
func (n *node[V, A]) mirror(i int32) *mirrorState {
	if h := n.ref[i].mirror; h != noSlab {
		return &n.mirrors[h]
	}
	return nil
}

// addMaster gives slot i (a promoted or recovered master) the replica table t.
func (n *node[V, A]) addMaster(i int32, t replicaTable) {
	n.ref[i].master = int32(len(n.masters))
	n.masters = append(n.masters, t)
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
	n.masters = make([]replicaTable, masters)
	n.mirrors = make([]mirrorState, mirrors)
	for i := range n.ref {
		if h := n.ref[i].mirror; h != noSlab {
			n.mirrors[h].slot = int32(i)
		}
	}
}
