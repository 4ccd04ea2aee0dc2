package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"imitator/internal/graph"
)

// errTruncated reports a malformed recovery or checkpoint payload.
var errTruncated = errors.New("core: truncated payload")

// writer-side primitives (append-style, little endian).

func putU8(buf []byte, v uint8) []byte   { return append(buf, v) }
func putU16(buf []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(buf, v) }
func putU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func putI16(buf []byte, v int16) []byte  { return putU16(buf, uint16(v)) }
func putI32(buf []byte, v int32) []byte  { return putU32(buf, uint32(v)) }
func putF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}
func putBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// reader consumes a payload with sticky error handling.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.buf) < 1 {
		r.fail()
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.buf) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.buf) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) i16() int16 { return int16(r.u16()) }
func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) f64() float64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

func (r *reader) bool() bool { return r.u8() != 0 }

// readValue decodes a V using the cluster's value codec.
func readValue[V any](r *reader, c Codec[V]) V {
	var zero V
	if r.err != nil {
		return zero
	}
	v, rest, err := c.Read(r.buf)
	if err != nil {
		r.err = err
		return zero
	}
	r.buf = rest
	return v
}

func (r *reader) remaining() int { return len(r.buf) }

// An edge-ckpt file (§4.3) is a run of 16-byte (src u32, dst u32, weight
// f64) records; appendEdgeCkpt writes one and eachEdgeCkpt reads them back.
func appendEdgeCkpt(buf []byte, src, dst graph.VertexID, wt float64) []byte {
	return putF64(putU32(putU32(buf, uint32(src)), uint32(dst)), wt)
}

// eachEdgeCkpt calls fn on every record of an edge-ckpt file in order,
// stopping at fn's first error; a truncated record is errTruncated.
func eachEdgeCkpt(data []byte, fn func(src, dst graph.VertexID, wt float64) error) error {
	r := &reader{buf: data}
	for r.remaining() > 0 {
		src, dst, wt := graph.VertexID(r.u32()), graph.VertexID(r.u32()), r.f64()
		if r.err != nil {
			return r.err
		}
		if err := fn(src, dst, wt); err != nil {
			return err
		}
	}
	return nil
}

// Recovery record roles.
const (
	roleReplica uint8 = iota
	roleMaster
)

// encodeRecoveryRecord serializes one recovery record. A record recreates
// one vertex entry on the recovering node: its identity, dynamic state,
// and — when the entry is a master or mirror — the replica location table
// and (edge-cut) the raw in-edge list.
func encodeRecoveryRecord[V any](buf []byte, vc Codec[V], role uint8, pos int32,
	id graph.VertexID, flags entryFlags, mirrorRank int16,
	masterNode int16, masterPos int32, inDeg, outDeg int32,
	value V, lastActivate bool, lastActivateIter int32,
	table *replicaTable, edges *rawEdges) []byte {
	buf = putU8(buf, role)
	buf = putI32(buf, pos)
	buf = putU32(buf, uint32(id))
	buf = putU8(buf, uint8(flags))
	buf = putI16(buf, mirrorRank)
	buf = putI16(buf, masterNode)
	buf = putI32(buf, masterPos)
	buf = putI32(buf, inDeg)
	buf = putI32(buf, outDeg)
	buf = vc.Append(buf, value)
	buf = putBool(buf, lastActivate)
	buf = putI32(buf, lastActivateIter)
	if table != nil {
		buf = putU8(buf, 1)
		buf = table.encode(buf)
	} else {
		buf = putU8(buf, 0)
	}
	if edges != nil {
		buf = putU8(buf, 1)
		buf = edges.encode(buf)
	} else {
		buf = putU8(buf, 0)
	}
	return buf
}

// recoveryRecord is the decoded form.
type recoveryRecord[V any] struct {
	role             uint8
	pos              int32
	id               graph.VertexID
	flags            entryFlags
	mirrorRank       int16
	masterNode       int16
	masterPos        int32
	inDeg, outDeg    int32
	value            V
	lastActivate     bool
	lastActivateIter int32
	table            *replicaTable
	edges            *rawEdges
}

func decodeRecoveryRecord[V any](r *reader, vc Codec[V]) recoveryRecord[V] {
	var rec recoveryRecord[V]
	rec.role = r.u8()
	rec.pos = r.i32()
	rec.id = graph.VertexID(r.u32())
	rec.flags = entryFlags(r.u8())
	rec.mirrorRank = r.i16()
	rec.masterNode = r.i16()
	rec.masterPos = r.i32()
	rec.inDeg = r.i32()
	rec.outDeg = r.i32()
	rec.value = readValue(r, vc)
	rec.lastActivate = r.bool()
	rec.lastActivateIter = r.i32()
	if r.bool() {
		rec.table = decodeReplicaTable(r)
	}
	if r.bool() {
		rec.edges = decodeRawEdges(r)
	}
	return rec
}

// replicaTable is a master's replica location table (§5: a master knows its
// replicas' locations and positions; mirrors carry a copy).
type replicaTable struct {
	nodes    []int16
	pos      []int32
	ftOnly   []bool
	mirrorOf []int16
}

// add appends one replica row.
func (t *replicaTable) add(node int16, pos int32, ftOnly bool) {
	t.nodes = append(t.nodes, node)
	t.pos = append(t.pos, pos)
	t.ftOnly = append(t.ftOnly, ftOnly)
}

// hosts reports whether the table has a replica on node n.
func (t *replicaTable) hosts(n int) bool {
	return slices.Contains(t.nodes, int16(n))
}

func (t *replicaTable) encode(buf []byte) []byte {
	buf = putU16(buf, uint16(len(t.nodes)))
	for i := range t.nodes {
		buf = putI16(buf, t.nodes[i])
		buf = putI32(buf, t.pos[i])
		buf = putBool(buf, t.ftOnly[i])
	}
	buf = putU16(buf, uint16(len(t.mirrorOf)))
	for _, m := range t.mirrorOf {
		buf = putI16(buf, m)
	}
	return buf
}

func decodeReplicaTable(r *reader) *replicaTable {
	n := int(r.u16())
	if n*7 > r.remaining() { // sanity bound: each replica row is 7 bytes
		r.fail()
		return &replicaTable{}
	}
	t := &replicaTable{
		nodes:  make([]int16, n),
		pos:    make([]int32, n),
		ftOnly: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		t.nodes[i] = r.i16()
		t.pos[i] = r.i32()
		t.ftOnly[i] = r.bool()
	}
	m := int(r.u16())
	if m*2 > r.remaining() { // sanity bound: each mirror index is 2 bytes
		r.fail()
		return t
	}
	t.mirrorOf = make([]int16, m)
	for i := 0; i < m; i++ {
		t.mirrorOf[i] = r.i16()
	}
	return t
}

// rawEdges is an in-edge list by global vertex id, with each source's
// master node (needed to request replica creation during Migration). wt is
// nil when every weight is 1.
type rawEdges struct {
	src       []graph.VertexID
	wt        weights
	srcMaster []int16
}

func (e *rawEdges) encode(buf []byte) []byte {
	buf = putU32(buf, uint32(len(e.src)))
	for i := range e.src {
		buf = putU32(buf, uint32(e.src[i]))
		buf = putF64(buf, e.wt.at(i))
		buf = putI16(buf, e.srcMaster[i])
	}
	return buf
}

// decodeRawEdges reads an encoded list, leaving wt nil when every decoded
// weight is 1.
func decodeRawEdges(r *reader) *rawEdges {
	n := int(r.u32())
	if n*14 > r.remaining() { // sanity bound: each edge is >= 14 bytes
		r.fail()
		return &rawEdges{}
	}
	e := &rawEdges{
		src:       make([]graph.VertexID, n),
		srcMaster: make([]int16, n),
	}
	for i := 0; i < n; i++ {
		e.src[i] = graph.VertexID(r.u32())
		e.wt = e.wt.add(i, r.f64())
		e.srcMaster[i] = r.i16()
	}
	e.wt = slices.Clip(e.wt) // cap == len, as load carves its lists
	return e
}
