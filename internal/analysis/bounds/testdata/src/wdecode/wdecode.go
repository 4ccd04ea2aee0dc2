// Package wdecode exercises the wirebounds analyzer with the repo's
// sticky-reader decoder idiom.
package wdecode

import "encoding/binary"

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() { r.err = errTruncated }

var errTruncated = err("truncated")

type err string

func (e err) Error() string { return string(e) }

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

func (r *reader) remaining() int { return len(r.buf) }

// decodeUnbounded allocates straight from a 32-bit wire count.
func decodeUnbounded(r *reader) []int32 {
	n := int(r.u32())
	out := make([]int32, n) // want `no dominating bound check`
	for i := 0; i < n; i++ {
		out[i] = int32(r.u32())
	}
	return out
}

// decodeInline feeds the read into make without even a variable.
func decodeInline(r *reader) []byte {
	return make([]byte, int(r.u16())) // want `no dominating bound check`
}

// decodeBounded is the approved idiom: a remaining-payload bound dominates.
func decodeBounded(r *reader) []int32 {
	n := int(r.u32())
	if n*4 > r.remaining() {
		r.fail()
		return nil
	}
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = int32(r.u32())
	}
	return out
}

// decodeClamped bounds through min().
func decodeClamped(r *reader) []byte {
	n := min(int(r.u16()), 1024)
	return make([]byte, n)
}

// decodeFrame mirrors a framed transport read with an explicit limit.
func decodeFrame(r *reader, limit uint32) []byte {
	size := r.u32()
	if size > limit {
		r.fail()
		return nil
	}
	return make([]byte, size)
}

// decodeAppendLoop grows under a tainted loop bound: after a truncation the
// sticky reader yields zeros while the loop keeps appending.
func decodeAppendLoop(r *reader) []uint32 {
	n := int(r.u32())
	var out []uint32
	for i := 0; i < n; i++ { // want `loop bound derives from decoded input`
		out = append(out, r.u32())
	}
	return out
}

// decodeIndexLoop writes into a pre-bounded slice: no growth, no report.
func decodeIndexLoop(r *reader) []uint32 {
	n := int(r.u32())
	if n*4 > r.remaining() {
		r.fail()
		return nil
	}
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = r.u32()
	}
	return out
}

// decodeAnnotated keeps a justified exception.
func decodeAnnotated(r *reader) []byte {
	n := int(r.u16())
	return make([]byte, n) //imitator:wirebounds-ok length is validated by the caller against the checkpoint manifest
}

// decodeMapHint flags map size hints too.
func decodeMapHint(r *reader) map[uint32]bool {
	n := int(r.u32())
	m := make(map[uint32]bool, n) // want `no dominating bound check`
	for i := 0; i < n; i++ {
		m[r.u32()] = true
	}
	return m
}

// decodeZeroGuard rules out zero, which caps nothing: an equality test is
// not a bound.
func decodeZeroGuard(r *reader) []int32 {
	n := int(r.u32())
	if n == 0 {
		return nil
	}
	return make([]int32, n) // want `no dominating bound check`
}

// decodeCounts stores decoded counts in a container; its elements stay
// tainted when they later size an allocation.
func decodeCounts(r *reader) [][]int32 {
	counts := make([]int, 4)
	for i := range counts {
		counts[i] = int(r.u32())
	}
	out := make([][]int32, len(counts))
	for i := range counts {
		out[i] = make([]int32, counts[i]) // want `no dominating bound check`
	}
	return out
}

// buildFixed has no wire-derived sizes: untainted make is fine.
func buildFixed(r *reader) []byte {
	return make([]byte, 64)
}
