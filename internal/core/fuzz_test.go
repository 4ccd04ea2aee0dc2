package core

import (
	"encoding/binary"
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// FuzzSyncPayloadDecode hardens the sync-record decoder against arbitrary
// bytes: it must never panic or read out of bounds (positions are attacker-
// controlled in the fuzz sense, so we bound-check before indexing like the
// receive path does via trusted senders; the fuzz target exercises the
// decode loop itself on a scratch node).
func FuzzSyncPayloadDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &reader{buf: data}
		for r.remaining() > 0 && r.err == nil {
			rec := decodeRecoveryRecord(r, Float64Codec{})
			_ = rec
		}
	})
}

// FuzzRawEdgesDecode hardens the raw in-edge-list decoder against arbitrary
// bytes: it must never panic or allocate beyond the payload's sanity bound,
// and a successful decode must keep the parallel slices in lockstep and
// survive an encode/decode round trip.
func FuzzRawEdgesDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3})
	f.Add((&rawEdges{
		src:       []graph.VertexID{7, 9},
		wt:        []float64{0.5, 2},
		srcMaster: []int16{1, -1},
	}).encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &reader{buf: data}
		e := decodeRawEdges(r)
		if len(e.src) != len(e.wt) || len(e.src) != len(e.srcMaster) {
			t.Fatalf("parallel slices diverged: %d/%d/%d", len(e.src), len(e.wt), len(e.srcMaster))
		}
		if r.err != nil {
			return
		}
		rt := decodeRawEdges(&reader{buf: e.encode(nil)})
		if len(rt.src) != len(e.src) {
			t.Fatalf("round trip length %d, want %d", len(rt.src), len(e.src))
		}
		for i := range e.src {
			if rt.src[i] != e.src[i] || rt.srcMaster[i] != e.srcMaster[i] {
				t.Fatalf("round trip entry %d mismatch", i)
			}
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
		r := &reader{buf: data}
		tab := decodeReplicaTable(r)
		if len(tab.nodes) != len(tab.pos) || len(tab.nodes) != len(tab.ftOnly) {
			t.Fatalf("parallel slices diverged: %d/%d/%d", len(tab.nodes), len(tab.pos), len(tab.ftOnly))
		}
		if r.err != nil {
			return
		}
		rt := decodeReplicaTable(&reader{buf: tab.encode(nil)})
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
		buf := table.encode(nil)
		r := &reader{buf: buf}
		got := decodeReplicaTable(r)
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
				func(b []byte) { cl.applySync(nd, nd.stagers[0], b) },
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
