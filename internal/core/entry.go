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
// replication metadata lives in meta, which a failure-free superstep never
// touches.
type hot[V any] struct {
	// Gather reads a neighbour's value, id and degrees: the first 20 bytes.
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
	// last changed this master's value or activity; incremental checkpoints
	// and log deltas persist only masters touched since the previous epoch.
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
// list out instead of growing into the next entry's.
type topo struct {
	inNbr  []int32
	inWt   []float64
	outNbr []int32
}

// meta is a slot's replication metadata, read only when a replica table is
// flattened into a sync route, by FT persistence and by recovery.
type meta struct {
	// replicas (masters only): where the replicas live and at which
	// positions, which exist only for fault tolerance, and which of them are
	// mirrors (in rank order).
	replicas replicaTable

	// Mirror-only full state: a copy of the master's replica table and, for
	// edge-cut, the master's in-edges by global id with each source's master
	// node (vertex-cut recovers edges from edge-ckpt files).
	mTable     replicaTable
	mEdges     rawEdges
	mirrorRank int16 // this mirror's rank; lowest surviving rank recovers
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
	t, m := &n.topo[i], &n.meta[i]
	b := int64(entryFixedBytes) + 2*int64(valueSize) // value + pending
	b += int64(len(t.inNbr))*12 + int64(len(t.outNbr))*4
	b += int64(len(m.replicas.nodes)) * 7 // node + pos + ftOnly
	b += int64(len(m.replicas.mirrorOf)) * 2
	b += int64(len(m.mEdges.src)) * 14 // src id + weight + src master
	b += int64(len(m.mTable.nodes))*7 + int64(len(m.mTable.mirrorOf))*2
	return b
}
