package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/graph"
	"imitator/internal/netsim"
)

// FuzzSlotStateDecode hardens the slot-state codec that data snapshots and
// fullResync share: decoding arbitrary bytes never panics, input shorter than
// one record or naming a position outside the slot table is an error, and a
// record that decodes survives an appendSlotState round trip (slots compared,
// not bytes: bool() reads any non-zero byte as true).
func FuzzSlotStateDecode(f *testing.F) {
	const slots = 8
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(appendSlotState(nil, Float64Codec{}, 3, &hot[float64]{value: 0.25, active: true, lastActivateIter: -1}))
	f.Add(appendSlotState(nil, Float64Codec{}, slots, &hot[float64]{value: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		const width = 4 + 8 + 1 + 1 + 4 // pos | float64 | active | lastActivate | stamp
		got := make([]hot[float64], slots)
		r := &reader{buf: data}
		readSlotState(r, Float64Codec{}, got, true)
		if len(data) < width {
			if r.err == nil {
				t.Fatalf("%d-byte input decoded", len(data))
			}
			return
		}
		pos := int32(binary.LittleEndian.Uint32(data))
		if pos < 0 || pos >= slots {
			if r.err == nil {
				t.Fatalf("position %d outside %d slots decoded", pos, slots)
			}
			return
		}
		if r.err != nil || r.remaining() != len(data)-width {
			t.Fatalf("decode: err %v, %d of %d bytes left", r.err, r.remaining(), len(data))
		}
		back := &reader{buf: appendSlotState(nil, Float64Codec{}, pos, &got[pos])}
		again := make([]hot[float64], slots)
		readSlotState(back, Float64Codec{}, again, true)
		a, b := again[pos], got[pos]
		if back.err != nil || back.remaining() != 0 || math.Float64bits(a.value) != math.Float64bits(b.value) {
			t.Fatalf("round trip: %+v (err %v, %d bytes left), want %+v", a, back.err, back.remaining(), b)
		}
		if a.value, b.value = 0, 0; a != b {
			t.Fatalf("round trip: %+v, want %+v", a, b)
		}
	})
}

// FuzzRecoveryRecordDecode hardens the recovery-record decoder against
// arbitrary bytes: decoding a payload (both passes of decodeRecords) must
// never panic or allocate beyond the payload's sanity bounds, and the records
// of a payload that decodes cleanly must survive an encode/decode round trip.
// Records are compared, not bytes: bool() reads any non-zero byte as true, so
// the re-encoding of a valid record need not equal its input.
func FuzzRecoveryRecordDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3})
	f.Add(encodeRecoveryRecord(nil, Float64Codec{}, 3, &recSlot[float64]{id: 7, flags: flagMaster | flagSelfish,
		masterNode: 2, masterPos: 3, inDeg: 4, outDeg: 5, value: 0.25, lastActivate: true, lastActivateIter: 6},
		&replicaTable{nodes: []int16{1}, pos: []int32{9}, ftOnly: []bool{true}, mirrorOf: []int16{0}},
		&rawEdges{src: []graph.VertexID{4}, wt: []float64{1.5}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeRecordsOf(data, Float64Codec{})
		if err != nil {
			return
		}
		var back []byte
		for _, rec := range recs {
			back = encodeRecoveryRecord(back, Float64Codec{}, rec.pos, &rec.slot, rec.table, rec.edges)
		}
		got, err := decodeRecordsOf(back, Float64Codec{})
		if err != nil || len(got) != len(recs) {
			t.Fatalf("round trip: %d records (err %v), want %d", len(got), err, len(recs))
		}
		for k := range recs {
			if !sameRecord(got[k], recs[k]) {
				t.Fatalf("round trip of record %d: %+v, want %+v", k, got[k], recs[k])
			}
		}
	})
}

// decodeRecordsOf decodes buf as one round's recovery payload.
func decodeRecordsOf[V any](buf []byte, vc Codec[V]) ([]recoveryRecord[V], error) {
	return decodeRecords([]netsim.Message{{Kind: netsim.KindRecovery, Payload: buf}}, vc, -1)
}

// decodeTwice runs decode over data as decodeRecords does: a count pass,
// then, if that succeeds, the fill pass on an arena it sized. It returns the
// last pass's result and reader.
func decodeTwice[T any](data []byte, decode func(r *reader, a *recArena) T) (T, *reader) {
	a := &recArena{}
	r := &reader{buf: data}
	got := decode(r, a)
	if r.err != nil {
		return got, r
	}
	a.alloc()
	r = &reader{buf: data}
	return decode(r, a), r
}

// sameRecord compares two decoded recovery records: their slots by value,
// the slots' values by their bits.
func sameRecord(a, b recoveryRecord[float64]) bool {
	as, bs := a.slot, b.slot
	as.value, bs.value = 0, 0
	if a.pos != b.pos || as != bs || math.Float64bits(a.slot.value) != math.Float64bits(b.slot.value) ||
		(a.table == nil) != (b.table == nil) || (a.edges == nil) != (b.edges == nil) {
		return false
	}
	if a.table != nil && (!slices.Equal(a.table.nodes, b.table.nodes) || !slices.Equal(a.table.pos, b.table.pos) ||
		!slices.Equal(a.table.ftOnly, b.table.ftOnly) || !slices.Equal(a.table.mirrorOf, b.table.mirrorOf)) {
		return false
	}
	if a.edges != nil && (!slices.Equal(a.edges.src, b.edges.src) ||
		!slices.EqualFunc(a.edges.wt, b.edges.wt, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })) {
		return false
	}
	return true
}

// FuzzRawEdgesDecode hardens the raw in-edge-list decoder against arbitrary
// bytes: it must never panic or allocate beyond the payload's sanity bound,
// and a successful decode must keep the parallel slices in lockstep (a nil
// weight list stands for all ones, and a decode keeps one only if some weight
// is not 1) and encode back to exactly the bytes it consumed, each edge's
// unread master slot set to noNode.
func FuzzRawEdgesDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3})
	f.Add((&rawEdges{
		src: []graph.VertexID{7, 9},
		wt:  []float64{0.5, 2},
	}).encode(nil))
	f.Add((&rawEdges{ // all unit weights: decodes to a nil list
		src: []graph.VertexID{3, 5, 8},
	}).encode(nil))
	f.Add((&rawEdges{ // mixed: the list materialises at the third edge
		src: []graph.VertexID{3, 5, 8, 13},
		wt:  []float64{1, 1, 2.5, 1},
	}).encode(nil))
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 2, 0}) // a set master slot
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})                               // one edge, 6 of its 14 bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		e, r := decodeTwice(data, decodeRawEdges)
		if r.err != nil {
			return
		}
		if e.wt != nil && len(e.wt) != len(e.src) {
			t.Fatalf("parallel slices diverged: %d/%d", len(e.src), len(e.wt))
		}
		if e.wt != nil && !slices.ContainsFunc(e.wt, func(w float64) bool { return w != 1 }) {
			t.Fatalf("decode stored %d unit weights", len(e.wt))
		}
		want := slices.Clone(data[:len(data)-r.remaining()])
		for k := range e.src {
			copy(want[4+14*k+12:], putI16(nil, noNode))
		}
		if got := e.encode(nil); !bytes.Equal(got, want) {
			t.Fatalf("re-encoding gave %x, want the consumed input %x with master slots noNode", got, want)
		}
	})
}

// FuzzReplicaTableDecode feeds raw bytes (not just round trips) to the
// replica-table decoder: no panics, parallel slices in lockstep, and both
// length prefixes honored only up to their sanity bounds.
func FuzzReplicaTableDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 9})
	f.Add([]byte{1, 0, 2, 0, 5, 0, 0, 0, 1, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, r := decodeTwice(data, decodeReplicaTable)
		if r.err != nil {
			return
		}
		if len(tab.nodes) != len(tab.pos) || len(tab.nodes) != len(tab.ftOnly) {
			t.Fatalf("parallel slices diverged: %d/%d/%d", len(tab.nodes), len(tab.pos), len(tab.ftOnly))
		}
		rt, _ := decodeTwice(tab.encode(nil), decodeReplicaTable)
		if len(rt.nodes) != len(tab.nodes) || len(rt.mirrorOf) != len(tab.mirrorOf) {
			t.Fatalf("round trip lengths %d/%d, want %d/%d",
				len(rt.nodes), len(rt.mirrorOf), len(tab.nodes), len(tab.mirrorOf))
		}
	})
}

// FuzzReplicaTableRoundTrip checks encode/decode agreement for replica
// tables generated from fuzz inputs.
func FuzzReplicaTableRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, n, m uint8) {
		nn := int(n % 32)
		table := &replicaTable{
			nodes:    make([]int16, nn),
			pos:      make([]int32, nn),
			ftOnly:   make([]bool, nn),
			mirrorOf: make([]int16, int(m%8)),
		}
		for i := 0; i < nn; i++ {
			table.nodes[i] = int16(i)
			table.pos[i] = int32(i * 7)
			table.ftOnly[i] = i%3 == 0
		}
		got, r := decodeTwice(table.encode(nil), decodeReplicaTable)
		if r.err != nil {
			t.Fatalf("decode error: %v", r.err)
		}
		if len(got.nodes) != nn || len(got.mirrorOf) != len(table.mirrorOf) {
			t.Fatalf("length mismatch: %d/%d", len(got.nodes), len(got.mirrorOf))
		}
		for i := range got.nodes {
			if got.nodes[i] != table.nodes[i] || got.pos[i] != table.pos[i] || got.ftOnly[i] != table.ftOnly[i] {
				t.Fatalf("entry %d mismatch", i)
			}
		}
	})
}

// FuzzEdgeCkptDecode hardens the edge-ckpt codec Rebirth and Migration read
// DFS files through: fuzzer-chosen (src, dst, weight) triples survive
// appendEdgeCkpt then eachEdgeCkpt bit for bit, and arbitrary bytes never
// panic the decoder: a payload of whole 16-byte records decodes and
// re-encodes to itself, any other length is errTruncated, and fn's first
// error stops the walk.
func FuzzEdgeCkptDecode(f *testing.F) {
	f.Add(uint32(7), uint32(9), 0.5, []byte{})
	f.Add(uint32(0), uint32(math.MaxUint32), math.Inf(-1), make([]byte, 16))
	f.Add(uint32(3), uint32(3), 1.0, make([]byte, 33))
	f.Add(uint32(1), uint32(2), math.NaN(), appendEdgeCkpt(appendEdgeCkpt(nil, 4, 5, 1), 6, 7, -2))
	f.Fuzz(func(t *testing.T, src, dst uint32, wt float64, data []byte) {
		enc := appendEdgeCkpt(appendEdgeCkpt(nil, graph.VertexID(src), graph.VertexID(dst), wt), graph.VertexID(dst), graph.VertexID(src), -wt)
		var got [][3]uint64
		if err := eachEdgeCkpt(enc, func(s, d graph.VertexID, w float64) error {
			got = append(got, [3]uint64{uint64(s), uint64(d), math.Float64bits(w)})
			return nil
		}); err != nil {
			t.Fatalf("decoding two encoded triples: %v", err)
		}
		want := [][3]uint64{
			{uint64(src), uint64(dst), math.Float64bits(wt)},
			{uint64(dst), uint64(src), math.Float64bits(-wt)},
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round trip gave %v, want %v", got, want)
		}

		var re []byte
		err := eachEdgeCkpt(data, func(s, d graph.VertexID, w float64) error {
			re = appendEdgeCkpt(re, s, d, w)
			return nil
		})
		if len(data)%16 != 0 {
			if !errors.Is(err, errTruncated) {
				t.Fatalf("%d-byte payload: error %v, want errTruncated", len(data), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-byte payload: %v", len(data), err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encoding gave %x, want the input %x", re, data)
		}
		if len(data) == 0 {
			return
		}
		stop, calls := errors.New("stop"), 0
		if err := eachEdgeCkpt(data, func(graph.VertexID, graph.VertexID, float64) error {
			calls++
			return stop
		}); err != stop || calls != 1 {
			t.Fatalf("fn's error: walk returned %v after %d calls, want it after 1", err, calls)
		}
	})
}

// TestSuperstepDecodersStopAtTruncatedRecord feeds the three superstep
// receive decoders — the sync-record loop under both engines and the
// vertex-cut partial-accumulator merge — every truncation of a valid
// two-record payload. A record cut short must end the batch (the same early
// return a codec error takes), never panic the node's goroutine, and every
// record that arrived whole must still be applied.
func TestSuperstepDecodersStopAtTruncatedRecord(t *testing.T) {
	le := binary.LittleEndian
	sync := Float64Codec{}.Append(append(le.AppendUint32(nil, 0), 1), 2.5)
	sync = Float64Codec{}.Append(append(le.AppendUint32(sync, 1), 0), 3.5)
	gather := Float64Codec{}.Append(le.AppendUint32(nil, 0), 2.5)
	gather = Float64Codec{}.Append(le.AppendUint32(gather, 1), 3.5)
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		cl, err := NewCluster[float64, float64](DefaultConfig(mode, 3), datasets.Tiny(60, 300, 5), fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		nd := cl.nodes[0]
		cl.routeReady(nd) // the receive phases' prologue: applySync scatters through the route
		cases := []struct {
			name    string
			payload []byte
			apply   func([]byte)
			applied func(pos int) bool
		}{
			{"sync", sync,
				func(b []byte) { cl.applySync(nd, b) },
				func(pos int) bool { return nd.hot[pos].hasPending }},
			{"gather", gather,
				func(b []byte) { cl.vcMergePayload(nd, b) },
				func(pos int) bool { return nd.mergedPart[pos].has }},
		}
		for _, tc := range cases {
			recLen := len(tc.payload) / 2
			for cut := 0; cut <= len(tc.payload); cut++ {
				nd.hot[0].clearPending()
				nd.hot[1].clearPending()
				nd.mergedPart = ensurePartials(nd.mergedPart, len(nd.hot))
				tc.apply(tc.payload[:cut])
				for pos := 0; pos < 2; pos++ {
					if want := cut >= (pos+1)*recLen; tc.applied(pos) != want {
						t.Errorf("%v %s cut at %d/%d: record %d applied = %v, want %v",
							mode, tc.name, cut, len(tc.payload), pos, !want, want)
					}
				}
			}
		}
	}
}

// TestExchangeFailsOnTruncatedRecord sends every truncation of a two-record
// move-notice payload through exchange. A payload cut inside a record must
// fail the round with the truncation error; every record that arrived whole
// must still be applied, and nothing of the cut one.
func TestExchangeFailsOnTruncatedRecord(t *testing.T) {
	cl, err := NewCluster[float64, float64](DefaultConfig(EdgeCutMode, 3), datasets.Tiny(60, 300, 5), fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.stopWorkers()
	nd := cl.nodes[0]
	var payload []byte
	for pos := int32(0); pos < 2; pos++ {
		payload = putI32(payload, pos)
		payload = putI16(payload, 7)
		payload = putI32(payload, 100+pos)
	}
	recLen := len(payload) / 2
	orig := [2]hot[float64]{nd.hot[0], nd.hot[1]}
	for cut := 0; cut <= len(payload); cut++ {
		nd.hot[0], nd.hot[1] = orig[0], orig[1]
		cl.net.Send(1, 0, netsim.KindRecovery, append([]byte(nil), payload[:cut]...))
		err := cl.exchange(false, func(nd *node[float64, float64], _ int, r *reader) {
			pos, mn, mp := r.i32(), r.i16(), r.i32()
			if r.err == nil {
				nd.hot[pos].masterNode, nd.hot[pos].masterPos = mn, mp
			}
		})
		if whole := cut%recLen == 0; whole != (err == nil) || !whole && !errors.Is(err, errTruncated) {
			t.Errorf("cut at %d/%d: err = %v", cut, len(payload), err)
		}
		for pos := 0; pos < 2; pos++ {
			want := cut >= (pos+1)*recLen
			if got := nd.hot[pos].masterNode == 7 && nd.hot[pos].masterPos == 100+int32(pos); got != want {
				t.Errorf("cut at %d/%d: record %d applied = %v, want %v", cut, len(payload), pos, got, want)
			}
		}
	}
}

// TestRecoveryRoundsBoundSlotPositions forges, for every recovery receive
// site that addresses a slot by a decoded position, one record whose
// position lies outside the receiver's slot table. The round must fail with
// errSlotRange and leave every slot as it was; an unchecked position indexes
// past nd.hot and panics the node's goroutine.
func TestRecoveryRoundsBoundSlotPositions(t *testing.T) {
	cl, err := NewCluster[float64, float64](DefaultConfig(EdgeCutMode, 3), datasets.Tiny(60, 300, 5), fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.stopWorkers()
	type N = *node[float64, float64]
	nd := cl.nodes[0]
	past := int32(len(nd.hot))
	slot := nd.hot[0].carried()
	for _, row := range []struct {
		name    string
		payload []byte
		round   func() error
	}{
		{"move notice", putI32(putI16(putI32(nil, past), 1), 0),
			func() error { return cl.exchange(false, N.applyMoveNotice) }},
		{"master reply", putI32(putI32(nil, past), 0),
			func() error { return cl.exchange(true, N.applyMasterReply) }},
		{"mirror drop", putI32(nil, past),
			func() error { return cl.exchange(true, N.applyMirrorDrop) }},
		{"activation", putI32(nil, past),
			func() error { return cl.exchange(true, N.applyActivation) }},
		{"activation, negative", putI32(nil, -1),
			func() error { return cl.exchange(true, N.applyActivation) }},
		{"FT repair record", encodeRecoveryRecord(nil, Float64Codec{}, past, &slot, nil, nil),
			func() error { return cl.exchangeRecords(true, N.landMirrors) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			before := slices.Clone(nd.hot)
			cl.net.Send(1, 0, netsim.KindRecovery, row.payload)
			if err := row.round(); !errors.Is(err, errSlotRange) {
				t.Errorf("err = %v, want %v", err, errSlotRange)
			}
			if !slices.Equal(nd.hot, before) {
				t.Error("a rejected round changed the receiver's slots")
			}
		})
	}
}

// TestRebirthRejectsForgedRecordPosition slips a recovery record addressed
// one past the newbie's slot table into the rebirth round. Run must return
// errSlotRange instead of placing it.
func TestRebirthRejectsForgedRecordPosition(t *testing.T) {
	const failed = 1
	cfg := DefaultConfig(EdgeCutMode, 3)
	cfg.MaxIter = 4
	cfg.Recovery = RecoverRebirth
	cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 2, Phase: FailBeforeBarrier, Nodes: []int{failed}}}
	cl, err := NewCluster[float64, float64](cfg, datasets.Tiny(60, 300, 5), fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRecoveryHook(func(phase string) {
		if phase == "rebirth:reload" {
			nd := cl.nodes[failed]
			slot := cl.nodes[0].hot[0].carried()
			cl.net.Send(0, failed, netsim.KindRecovery,
				encodeRecoveryRecord(nil, Float64Codec{}, int32(len(nd.hot)), &slot, nil, nil))
		}
	})
	if _, err := cl.Run(); !errors.Is(err, errSlotRange) {
		t.Fatalf("Run: err = %v, want %v", err, errSlotRange)
	}
}
