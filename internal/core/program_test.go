package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"imitator/internal/datasets"
	"imitator/internal/gen"
	"imitator/internal/graph"
)

func TestFloat64CodecRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		c := Float64Codec{}
		buf := c.Append(nil, v)
		if len(buf) != c.Size(v) {
			return false
		}
		got, rest, err := c.Read(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64CodecShortBuffer(t *testing.T) {
	if _, _, err := (Float64Codec{}).Read([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on short buffer")
	}
}

func TestInt32CodecRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		c := Int32Codec{}
		buf := c.Append(nil, v)
		got, rest, err := c.Read(buf)
		return err == nil && len(rest) == 0 && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVecCodecRoundTrip(t *testing.T) {
	c := VecCodec{Dim: 5}
	v := []float64{1, -2, 3.5, 0, 1e-300}
	buf := c.Append(nil, v)
	if len(buf) != c.Size(v) {
		t.Fatalf("size %d != %d", len(buf), c.Size(v))
	}
	got, rest, err := c.Read(buf)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %v", got)
	}
}

func TestVecCodecDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dim")
		}
	}()
	VecCodec{Dim: 2}.Append(nil, []float64{1})
}

func TestVecCodecShortBuffer(t *testing.T) {
	if _, _, err := (VecCodec{Dim: 2}).Read(make([]byte, 8)); err == nil {
		t.Fatal("expected error")
	}
}

func TestLabelCountCodecRoundTrip(t *testing.T) {
	c := LabelCountCodec{}
	v := []LabelCount{{Label: 3, Count: 2.5}, {Label: 9, Count: 1}}
	buf := c.Append(nil, v)
	if len(buf) != c.Size(v) {
		t.Fatalf("size %d != %d", len(buf), c.Size(v))
	}
	got, rest, err := c.Read(buf)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("got %v", got)
	}
}

func TestLabelCountCodecEmpty(t *testing.T) {
	c := LabelCountCodec{}
	buf := c.Append(nil, nil)
	got, _, err := c.Read(buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMergeLabelCounts(t *testing.T) {
	a := []LabelCount{{1, 2}, {3, 1}}
	b := []LabelCount{{1, 1}, {2, 5}, {4, 1}}
	got := MergeLabelCounts(a, b)
	want := []LabelCount{{1, 3}, {2, 5}, {3, 1}, {4, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestMergeLabelCountsSortedProperty(t *testing.T) {
	f := func(rawA, rawB []int32) bool {
		mk := func(raw []int32) []LabelCount {
			m := map[int32]float64{}
			for _, l := range raw {
				m[l]++
			}
			var out []LabelCount
			for l := range m {
				out = append(out, LabelCount{Label: l, Count: m[l]})
			}
			// Sort by label.
			for i := range out {
				for j := i + 1; j < len(out); j++ {
					if out[j].Label < out[i].Label {
						out[i], out[j] = out[j], out[i]
					}
				}
			}
			return out
		}
		got := MergeLabelCounts(mk(rawA), mk(rawB))
		total := 0.0
		for i, lc := range got {
			total += lc.Count
			if i > 0 && got[i-1].Label >= lc.Label {
				return false // must stay sorted and deduped
			}
		}
		return total == float64(len(rawA)+len(rawB))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	table := &replicaTable{
		nodes:    []int16{1, 3},
		pos:      []int32{10, 20},
		ftOnly:   []bool{false, true},
		mirrorOf: []int16{1},
	}
	edges := &rawEdges{
		src: []graph.VertexID{5, 6, 7},
		wt:  []float64{0.5, 1.5, 2.5},
	}
	vc := Float64Codec{}
	want := recSlot[float64]{id: 42, flags: flagMaster | flagSelfish, masterNode: 3, masterPos: 7,
		inDeg: 5, outDeg: 0, value: 3.14, lastActivate: true, lastActivateIter: 9}
	buf := encodeRecoveryRecord(nil, vc, 7, &want, table, edges)
	// The role byte repeats the master flag; the rank slot holds noNode.
	if buf[0] != 1 || int16(binary.LittleEndian.Uint16(buf[10:])) != noNode {
		t.Errorf("role byte %d, rank slot %x; want 1 and noNode", buf[0], buf[10:12])
	}
	recs, err := decodeRecordsOf(buf, vc)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records decoded, want 1", len(recs))
	}
	rec := recs[0]
	if rec.pos != 7 || rec.slot != want {
		t.Errorf("rec = %+v", rec)
	}
	if !reflect.DeepEqual(rec.table, table) {
		t.Errorf("table = %+v", rec.table)
	}
	if !reflect.DeepEqual(rec.edges, edges) {
		t.Errorf("edges = %+v", rec.edges)
	}
}

func TestWireTruncated(t *testing.T) {
	vc := Float64Codec{}
	buf := encodeRecoveryRecord(nil, vc, 1, &recSlot[float64]{id: 2, value: 1.0}, nil, nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := decodeRecordsOf(buf[:cut], vc); err == nil {
			t.Errorf("cut at %d decoded without error", cut)
		}
	}
}

// TestRecoveryRecordSize: the count pass of every staging loop sums
// recoveryRecordSize, so it must equal the length encodeRecoveryRecord writes
// for every shape of record: with and without a table and an edge list,
// unweighted and weighted edges, for a float64 and an int32 value codec.
func TestRecoveryRecordSize(t *testing.T) {
	table := &replicaTable{nodes: []int16{1, 3, 4}, pos: []int32{10, 20, 30}, ftOnly: []bool{false, true, false}, mirrorOf: []int16{1, 2}}
	unweighted := &rawEdges{src: []graph.VertexID{5, 6}}
	weighted := &rawEdges{src: []graph.VertexID{5, 6, 7}, wt: []float64{1, 0.5, 2}}
	for _, tab := range []*replicaTable{nil, {}, table} {
		for _, edges := range []*rawEdges{nil, {}, unweighted, weighted} {
			f := encodeRecoveryRecord(nil, Float64Codec{}, 7, &recSlot[float64]{id: 42, flags: flagMaster, masterNode: 3,
				masterPos: 7, inDeg: 5, outDeg: 2, value: 0.25, lastActivate: true, lastActivateIter: 9}, tab, edges)
			if got := recoveryRecordSize[float64](Float64Codec{}, 0.25, tab, edges); got != len(f) {
				t.Errorf("float64, table %v, edges %v: size %d, encoding %d bytes", tab, edges, got, len(f))
			}
			i := encodeRecoveryRecord(nil, Int32Codec{}, 7, &recSlot[int32]{id: 42, masterNode: 3, masterPos: 7,
				inDeg: 5, outDeg: 2, value: -4, lastActivateIter: 9}, tab, edges)
			if got := recoveryRecordSize[int32](Int32Codec{}, -4, tab, edges); got != len(i) {
				t.Errorf("int32, table %v, edges %v: size %d, encoding %d bytes", tab, edges, got, len(i))
			}
		}
	}
}

// TestAppendTopoEdges: a master's in-edges, encoded straight from its
// topology, are the bytes of the rawEdges list of its sources' ids and
// weights, and edgeListSize plus the flag byte is their length.
func TestAppendTopoEdges(t *testing.T) {
	road, err := gen.Road(gen.RoadConfig{Width: 12, Height: 12, ShortcutFrac: 0.1, WeightMu: 0.4, WeightSigma: 1.2, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{datasets.Tiny(300, 1800, 5), road} {
		cl, err := NewCluster[float64, float64](DefaultConfig(EdgeCutMode, 4), g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range cl.nodes {
			for i := range nd.hot {
				if !nd.hot[i].isMaster() {
					continue
				}
				nbr, wt := nd.in(i)
				re := &rawEdges{wt: wt}
				for _, sp := range nbr {
					re.src = append(re.src, nd.hot[sp].id)
				}
				got := nd.appendTopoEdges(nil, int32(i))
				if want := re.encode([]byte{1}); !bytes.Equal(got, want) {
					t.Fatalf("node %d slot %d: topology encoding differs from its rawEdges", nd.id, i)
				}
				if len(got) != 1+edgeListSize(len(nbr)) {
					t.Fatalf("node %d slot %d: %d bytes, edgeListSize says %d", nd.id, i, len(got), 1+edgeListSize(len(nbr)))
				}
			}
		}
	}
}
