package core

import (
	"encoding/binary"
	"testing"
)

func BenchmarkFloat64CodecAppend(b *testing.B) {
	c := Float64Codec{}
	buf := make([]byte, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0], 3.14159)
	}
}

func BenchmarkFloat64CodecRead(b *testing.B) {
	c := Float64Codec{}
	buf := c.Append(nil, 3.14159)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVecCodecRoundTrip(b *testing.B) {
	c := VecCodec{Dim: 8}
	v := make([]float64, 8)
	for i := range v {
		v[i] = float64(i) * 0.5
	}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Append(buf[:0], v)
		if _, _, err := c.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryRecordEncode(b *testing.B) {
	table := &replicaTable{
		nodes:    []int16{1, 2, 3},
		pos:      []int32{10, 20, 30},
		ftOnly:   []bool{false, false, true},
		mirrorOf: []int16{2},
	}
	buf := make([]byte, 0, 256)
	s := &recSlot[float64]{id: 42, flags: flagMaster, masterNode: 3, masterPos: 7, inDeg: 5, outDeg: 2,
		value: 3.14, lastActivate: true, lastActivateIter: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeRecoveryRecord(buf[:0], Float64Codec{}, 7, s, table, nil)
	}
}

func BenchmarkRecoveryRecordDecode(b *testing.B) {
	table := &replicaTable{
		nodes:    []int16{1, 2, 3},
		pos:      []int32{10, 20, 30},
		ftOnly:   []bool{false, false, true},
		mirrorOf: []int16{2},
	}
	buf := encodeRecoveryRecord(nil, Float64Codec{}, 7, &recSlot[float64]{id: 42, flags: flagMaster,
		masterNode: 3, masterPos: 7, inDeg: 5, outDeg: 2, value: 3.14, lastActivate: true, lastActivateIter: 9}, table, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := decodeRecordsOf(buf, Float64Codec{})
		if err != nil || recs[0].slot.id != 42 {
			b.Fatal("decode failed")
		}
	}
}

// The BenchmarkCodec* family covers the per-superstep wire formats (the CI
// bench-smoke step runs exactly this prefix).

// BenchmarkCodecSyncRecord encodes and decodes a batch of edge-cut sync
// records (pos + flags + value) — the dominant steady-state byte stream.
func BenchmarkCodecSyncRecord(b *testing.B) {
	const recs = 64
	c := Float64Codec{}
	buf := make([]byte, 0, recs*13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for p := 0; p < recs; p++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
			buf = append(buf, byte(p&1))
			buf = c.Append(buf, float64(p)*0.25)
		}
		rest := buf
		for len(rest) > 0 {
			_ = binary.LittleEndian.Uint32(rest)
			_ = rest[4]
			var err error
			if _, rest, err = c.Read(rest[5:]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCodecActivationNotice encodes and decodes a batch of 4-byte
// activation notices (vertex-cut R1/R4 and replay traffic).
func BenchmarkCodecActivationNotice(b *testing.B) {
	const recs = 256
	buf := make([]byte, 0, recs*4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for p := 0; p < recs; p++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		}
		var sum uint32
		for rest := buf; len(rest) >= 4; rest = rest[4:] {
			sum += binary.LittleEndian.Uint32(rest)
		}
		if sum == 1 {
			b.Fatal("impossible")
		}
	}
}
