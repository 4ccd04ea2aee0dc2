package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"imitator/internal/graph"
	"imitator/internal/netsim"
)

// errTruncated reports a malformed recovery or checkpoint payload.
var errTruncated = errors.New("core: truncated payload")

// errSlotRange reports a recovery record whose slot position lies outside
// the receiving node's slot table.
var errSlotRange = errors.New("core: slot position out of range")

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

// slot reads a slot position and fails the reader unless it indexes a table
// of n slots.
func (r *reader) slot(n int) int32 {
	pos := r.i32()
	if r.err == nil && (pos < 0 || int(pos) >= n) {
		r.err = errSlotRange
	}
	return pos
}

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

// encodeRecoveryRecord serializes one recovery record. A record recreates
// one vertex slot s at position pos on the recovering node: the slot's
// identity and dynamic state, and — when the slot is a master or mirror —
// the replica location table and (edge-cut) the raw in-edge list.
func encodeRecoveryRecord[V any](buf []byte, vc Codec[V], pos int32, s *recSlot[V], table *replicaTable, edges *rawEdges) []byte {
	buf = encodeRecordHead(buf, vc, pos, s, table)
	if edges == nil {
		return putU8(buf, 0)
	}
	return edges.encode(putU8(buf, 1))
}

// encodeRecordHead is encodeRecoveryRecord up to the edge-list flag, for a
// record whose list the caller appends itself (putMirrorRecord). The role
// byte repeats the flags' master bit and the rank slot holds noNode; no
// decoder reads either, and both stay only to keep the record's length.
// s's flags travel whole, so a stager builds them from the slot's roles:
// the recovery-work flags stay home (entry.go).
func encodeRecordHead[V any](buf []byte, vc Codec[V], pos int32, s *recSlot[V], table *replicaTable) []byte {
	buf = putU8(buf, uint8(s.flags&flagMaster))
	buf = putI32(buf, pos)
	buf = putU32(buf, uint32(s.id))
	buf = putU8(buf, uint8(s.flags))
	buf = putI16(buf, noNode)
	buf = putI16(buf, s.masterNode)
	buf = putI32(buf, s.masterPos)
	buf = putI32(buf, s.inDeg)
	buf = putI32(buf, s.outDeg)
	buf = vc.Append(buf, s.value)
	buf = putBool(buf, s.lastActivate)
	buf = putI32(buf, s.lastActivateIter)
	if table == nil {
		return putU8(buf, 0)
	}
	return table.encode(putU8(buf, 1))
}

// recordFixedBytes is a recovery record's length without its value, table
// and edge list: the fixed fields and the two presence flags.
const recordFixedBytes = 1 + 4 + 4 + 1 + 2 + 2 + 4 + 4 + 4 + 1 + 4 + 1 + 1

// recoveryRecordSize is the length encodeRecoveryRecord writes for a record
// with this value, table and edge list; a staging loop's count pass sums it.
func recoveryRecordSize[V any](vc Codec[V], value V, table *replicaTable, edges *rawEdges) int {
	n := recordFixedBytes + vc.Size(value)
	if table != nil {
		n += 4 + 7*len(table.nodes) + 2*len(table.mirrorOf)
	}
	if edges != nil {
		n += edgeListSize(len(edges.src))
	}
	return n
}

// edgeListSize is the encoded length of an n-edge rawEdges list.
func edgeListSize(n int) int { return 4 + 14*n }

// recSlot is what a recovery record carries of the slot it recreates: the
// fields that travel, 32 bytes for V = float64 against hot's 48. The
// receiver builds the slot from it (slot); the staged and per-superstep
// fields start zero there.
type recSlot[V any] struct {
	value            V
	id               graph.VertexID
	inDeg, outDeg    int32
	masterPos        int32
	lastActivateIter int32
	masterNode       int16
	flags            entryFlags
	lastActivate     bool
}

// carried returns the travelling fields of slot e, flags included: a stager
// rebuilds the flags from the roles before it encodes.
func (e *hot[V]) carried() recSlot[V] {
	return recSlot[V]{value: e.value, id: e.id, inDeg: e.inDeg, outDeg: e.outDeg, masterPos: e.masterPos,
		lastActivateIter: e.lastActivateIter, masterNode: e.masterNode, flags: e.flags, lastActivate: e.lastActivate}
}

// slot returns the slot s recreates.
func (s *recSlot[V]) slot() hot[V] {
	return hot[V]{value: s.value, id: s.id, inDeg: s.inDeg, outDeg: s.outDeg, masterPos: s.masterPos,
		lastActivateIter: s.lastActivateIter, masterNode: s.masterNode, flags: s.flags, lastActivate: s.lastActivate}
}

func (s *recSlot[V]) isMaster() bool { return s.flags&flagMaster != 0 }

// recoveryRecord is the decoded form: the slot it recreates at pos, with
// the table and edge list that slot keeps. A record recreates a master
// exactly when the slot's flags carry flagMaster.
type recoveryRecord[V any] struct {
	pos   int32
	slot  recSlot[V]
	table *replicaTable
	edges *rawEdges
}

// decodeRecoveryRecord reads one record, carving its table and edge list off
// a (on a's count pass it only sums what they need).
// A record lands at its position in a table of slots slots, so a position
// outside it fails r; slots < 0 leaves the position unchecked, for records
// that land at a fresh slot instead (replica creation stages -1).
func decodeRecoveryRecord[V any](r *reader, vc Codec[V], a *recArena, slots int) recoveryRecord[V] {
	var rec recoveryRecord[V]
	s := &rec.slot
	r.u8() // role byte
	if slots < 0 {
		rec.pos = r.i32()
	} else {
		rec.pos = r.slot(slots)
	}
	s.id = graph.VertexID(r.u32())
	s.flags = entryFlags(r.u8())
	r.i16() // rank slot
	s.masterNode = r.i16()
	s.masterPos = r.i32()
	s.inDeg = r.i32()
	s.outDeg = r.i32()
	s.value = readValue(r, vc)
	s.lastActivate = r.bool()
	s.lastActivateIter = r.i32()
	if r.bool() {
		rec.table = decodeReplicaTable(r, a)
	}
	if r.bool() {
		rec.edges = decodeRawEdges(r, a)
	}
	return rec
}

// decodeRecords decodes one round of recovery records, the payloads of msgs'
// KindRecovery messages, in two passes over the same bytes: a count pass sums
// the records and what their tables and edge lists need, then the fill pass
// decodes into a record list and a recArena of exactly that size. Everything
// is copied out of the payloads, so the caller may recycle them. A malformed
// payload, or a position outside slots (decodeRecoveryRecord), fails the
// count pass, and no record is returned.
func decodeRecords[V any](msgs []netsim.Message, vc Codec[V], slots int) ([]recoveryRecord[V], error) {
	a := &recArena{}
	var recs []recoveryRecord[V]
	for {
		for _, m := range msgs {
			if m.Kind != netsim.KindRecovery {
				continue
			}
			r := &reader{buf: m.Payload}
			for r.remaining() > 0 {
				rec := decodeRecoveryRecord(r, vc, a, slots)
				if r.err != nil {
					return nil, r.err
				}
				if a.fill {
					recs = append(recs, rec)
				} else {
					a.recs++
				}
			}
		}
		if a.fill {
			return recs, nil
		}
		a.alloc()
		recs = make([]recoveryRecord[V], 0, a.recs)
	}
}

// recArena holds the replica tables and in-edge lists of one round of
// recovery records (decodeRecords) in flat arrays, one per element type,
// carving each list off with cap == len: a round costs a few allocations
// however many records it carries. On the count pass (fill unset) take only
// sums what each array must hold; alloc then sizes them for the fill pass.
type recArena struct {
	fill   bool
	recs   int
	tables arenaOf[replicaTable]
	edges  arenaOf[rawEdges]
	i16    arenaOf[int16] // table hosts and mirror indexes
	i32    arenaOf[int32]
	bools  arenaOf[bool]
	src    arenaOf[graph.VertexID]
	wt     arenaOf[float64]
}

// arenaOf is one element type's array in a recArena, and on the count pass
// the number of elements it must hold.
type arenaOf[T any] struct {
	buf  []T
	need int
}

// take returns the next n elements of s, with cap == len, on the fill pass;
// the count pass adds n to what s must hold and returns nil.
func take[T any](fill bool, s *arenaOf[T], n int) []T {
	if !fill {
		s.need += n
		return nil
	}
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}

// alloc ends the count pass: every array is made at its counted size.
func (a *recArena) alloc() {
	a.tables.buf = make([]replicaTable, a.tables.need)
	a.edges.buf = make([]rawEdges, a.edges.need)
	a.i16.buf = make([]int16, a.i16.need)
	a.i32.buf = make([]int32, a.i32.need)
	a.bools.buf = make([]bool, a.bools.need)
	a.src.buf = make([]graph.VertexID, a.src.need)
	a.wt.buf = make([]float64, a.wt.need)
	a.fill = true
}

// replicaTable is a master's replica location table (§5: a master knows its
// replicas' locations and positions; mirrors carry a copy).
type replicaTable struct {
	nodes    []int16
	pos      []int32
	ftOnly   []bool
	mirrorOf []int16
}

// hosts reports whether the table has a replica on node n.
func (t *replicaTable) hosts(n int) bool {
	return slices.Contains(t.nodes, int16(n))
}

// retain keeps, in place, the rows whose host keep accepts, and remaps
// mirrorOf onto them: a mirror index whose row goes (or that names no row)
// goes too. It reports whether any row went; if none did, t is untouched.
func (t *replicaTable) retain(keep func(host int16) bool) bool {
	if !slices.ContainsFunc(t.nodes, func(host int16) bool { return !keep(host) }) {
		return false
	}
	mo := t.mirrorOf[:0]
	for _, idx := range t.mirrorOf {
		if idx < 0 || int(idx) >= len(t.nodes) || !keep(t.nodes[idx]) {
			continue
		}
		kept := 0
		for _, host := range t.nodes[:idx] {
			if keep(host) {
				kept++
			}
		}
		mo = append(mo, int16(kept))
	}
	w := 0
	for i, host := range t.nodes {
		if keep(host) {
			t.nodes[w], t.pos[w], t.ftOnly[w] = host, t.pos[i], t.ftOnly[i]
			w++
		}
	}
	t.nodes, t.pos, t.ftOnly, t.mirrorOf = t.nodes[:w], t.pos[:w], t.ftOnly[:w], mo
	return true
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

// decodeReplicaTable reads an encoded table into a's arrays; on a's count
// pass it returns nil.
func decodeReplicaTable(r *reader, a *recArena) *replicaTable {
	n := int(r.u16())
	if n*7 > r.remaining() { // sanity bound: each replica row is 7 bytes
		r.fail()
		return nil
	}
	var t *replicaTable
	if ts := take(a.fill, &a.tables, 1); ts != nil {
		t = &ts[0]
	}
	nodes, pos, ftOnly := take(a.fill, &a.i16, n), take(a.fill, &a.i32, n), take(a.fill, &a.bools, n)
	for i := 0; i < n; i++ {
		host, p, ft := r.i16(), r.i32(), r.bool()
		if t != nil {
			nodes[i], pos[i], ftOnly[i] = host, p, ft
		}
	}
	m := int(r.u16())
	if m*2 > r.remaining() { // sanity bound: each mirror index is 2 bytes
		r.fail()
		return nil
	}
	mirrorOf := take(a.fill, &a.i16, m)
	for i := 0; i < m; i++ {
		if idx := r.i16(); t != nil {
			mirrorOf[i] = idx
		}
	}
	if t != nil {
		*t = replicaTable{nodes: nodes, pos: pos, ftOnly: ftOnly, mirrorOf: mirrorOf}
	}
	return t
}

// rawEdges is an in-edge list by global vertex id. wt is nil when every
// weight is 1.
type rawEdges struct {
	src []graph.VertexID
	wt  weights
}

func (e *rawEdges) encode(buf []byte) []byte {
	buf = putU32(buf, uint32(len(e.src)))
	for i := range e.src {
		buf = appendRawEdge(buf, e.src[i], e.wt.at(i))
	}
	return buf
}

// appendRawEdge appends one edge of an encoded rawEdges list: the source's
// global id, the weight, and a 2-byte slot that holds noNode. No decoder
// reads the slot; it stays only to keep the list's length.
func appendRawEdge(buf []byte, src graph.VertexID, wt float64) []byte {
	return putI16(putF64(putU32(buf, uint32(src)), wt), noNode)
}

// decodeRawEdges reads an encoded list into a's arrays, keeping weights only
// when one is not 1 (wt stays nil otherwise); on a's count pass it returns
// nil.
func decodeRawEdges(r *reader, a *recArena) *rawEdges {
	n := int(r.u32())
	if n*14 > r.remaining() { // sanity bound: each edge is 14 bytes
		r.fail()
		return nil
	}
	weighted := false // an edge's weight is its bytes 4..12
	for k := 0; k < n && !weighted; k++ {
		weighted = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[14*k+4:])) != 1
	}
	var e *rawEdges
	if es := take(a.fill, &a.edges, 1); es != nil {
		e = &es[0]
	}
	src := take(a.fill, &a.src, n)
	var wt weights
	if weighted {
		wt = take(a.fill, &a.wt, n)
	}
	for k := 0; k < n; k++ {
		id, w := graph.VertexID(r.u32()), r.f64()
		r.i16() // master slot
		if e != nil {
			src[k] = id
			if wt != nil {
				wt[k] = w
			}
		}
	}
	if e != nil {
		*e = rawEdges{src: src, wt: wt}
	}
	return e
}
