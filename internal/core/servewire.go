package core

import (
	"fmt"

	"imitator/internal/graph"
)

// Serve wire codec: the query protocol a remote client would speak. The
// in-process load generator and the CLI round-trip every query and answer
// through these so the encode/decode paths are exercised end to end; the
// decode side bounds every count against the remaining payload before it
// sizes anything (TestDecodeAnswerRankCountAllocFree, FuzzAnswerDecode).

// EncodeQuery appends q's wire form to buf.
func EncodeQuery(buf []byte, q Query) []byte {
	buf = putU8(buf, uint8(q.Kind))
	buf = putU32(buf, uint32(q.Vertex))
	return putI32(buf, int32(q.K))
}

// DecodeQuery parses one wire-encoded query; trailing bytes are an error.
func DecodeQuery(buf []byte) (Query, error) {
	r := &reader{buf: buf}
	q := Query{
		Kind:   QueryKind(r.u8()),
		Vertex: graph.VertexID(r.u32()),
	}
	q.K = int(r.i32())
	if r.err != nil {
		return Query{}, r.err
	}
	if r.remaining() != 0 {
		return Query{}, fmt.Errorf("core: query payload has %d trailing bytes", r.remaining())
	}
	return q, nil
}

// EncodeAnswer appends a's wire form to buf.
func EncodeAnswer(buf []byte, a Answer) []byte {
	buf = putU8(buf, uint8(a.Kind))
	buf = putU32(buf, uint32(a.Vertex))
	buf = putF64(buf, a.Value)
	buf = putI32(buf, int32(a.Epoch))
	buf = putI32(buf, int32(a.Frontier))
	buf = putI16(buf, int16(a.Node))
	buf = putBool(buf, a.FromReplica)
	buf = putU32(buf, uint32(len(a.TopK)))
	for _, e := range a.TopK {
		buf = putU32(buf, uint32(e.Vertex))
		buf = putF64(buf, e.Value)
	}
	buf = putU32(buf, uint32(len(a.Neighbors)))
	for _, v := range a.Neighbors {
		buf = putU32(buf, uint32(v))
	}
	return buf
}

// DecodeAnswer parses one wire-encoded answer; trailing bytes are an error.
func DecodeAnswer(buf []byte) (Answer, error) {
	r := &reader{buf: buf}
	a := Answer{
		Kind:   QueryKind(r.u8()),
		Vertex: graph.VertexID(r.u32()),
		Value:  r.f64(),
	}
	a.Epoch = int(r.i32())
	a.Frontier = int(r.i32())
	a.Node = int(r.i16())
	a.FromReplica = r.bool()
	n := int(r.u32())
	if n*12 > r.remaining() { // sanity bound: each rank entry is 12 bytes
		r.fail()
		return Answer{}, r.err
	}
	if n > 0 {
		a.TopK = make([]RankEntry, n)
		for i := 0; i < n; i++ {
			a.TopK[i].Vertex = graph.VertexID(r.u32())
			a.TopK[i].Value = r.f64()
		}
	}
	m := int(r.u32())
	if m*4 > r.remaining() { // sanity bound: each neighbor id is 4 bytes
		r.fail()
		return Answer{}, r.err
	}
	if m > 0 {
		a.Neighbors = make([]graph.VertexID, m)
		for i := 0; i < m; i++ {
			a.Neighbors[i] = graph.VertexID(r.u32())
		}
	}
	if r.err != nil {
		return Answer{}, r.err
	}
	if r.remaining() != 0 {
		return Answer{}, fmt.Errorf("core: answer payload has %d trailing bytes", r.remaining())
	}
	return a, nil
}
