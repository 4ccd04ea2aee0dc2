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

// A node's vertex array (§5.1.2) is three position-parallel tables. Masters
// hold the authoritative state; replicas provide local reads; mirrors
// additionally hold the master's full state so they can recover it (§4.2).
// Entries are addressed by array position — a master replicates its position
// (and its replicas' positions) so recovery can place state without
// coordination — and one position names the same vertex in all three tables.
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

// topo is a slot's local topology, by array position. inNbr/inWt are the
// vertex's locally-stored in-edges (all of them for edge-cut masters; the
// local share for vertex-cut). outNbr lists local entries this vertex points
// to, for scatter activation; it is the reverse of inNbr. Load carves all
// three out of per-node arenas with cap == len, so the gather loop streams
// the arenas in entry order and an append (migration, rebirth) copies the
// list out instead of growing into the next entry's. An unweighted graph
// stores no inWt (weights).
type topo struct {
	inNbr  []int32
	inWt   weights
	outNbr []int32
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

// add appends x as the weight of edge n (the list covers edges [0, n)),
// materialising the implicit unit weights only when x is not 1.
func (w weights) add(n int, x float64) weights {
	if w == nil {
		if x == 1 {
			return nil
		}
		w = make(weights, n, n+1)
		for k := range w {
			w[k] = 1
		}
	}
	return append(w, x)
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
	t, r := &n.topo[i], n.ref[i]
	b := int64(entryFixedBytes) + 2*int64(valueSize) // value + pending
	b += int64(len(t.inNbr))*12 + int64(len(t.outNbr))*4
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
