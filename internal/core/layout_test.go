package core

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"imitator/internal/datasets"
)

// TestHotSlotFitsACacheLine pins the hot table's element size: a gather's
// random read of a neighbour must stay within one 64-byte line.
func TestHotSlotFitsACacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(hot[float64]{}); sz > 64 {
		t.Errorf("hot[float64] is %d bytes, want <= 64", sz)
	}
}

// TestSuperstepNeverTouchesMeta is the point of the hot/metadata split: once
// the sync routes are flattened, a failure-free superstep (compute, sync
// stage, receive, barrier, commit — both engines, replication on) reads no
// slab handle and no role slab. The test takes them away; any access would
// index a nil slice and panic.
func TestSuperstepNeverTouchesMeta(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(400, 2400, 4242)
		cfg := DefaultConfig(mode, 4)
		cfg.MaxIter = 1 // stepped manually below
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.stopWorkers()
		for iter := 0; iter < 4; iter++ {
			if err := cl.superstep(iter); err != nil {
				t.Fatal(err)
			}
			cl.barrier()
			cl.commit(iter)
			cl.iter++
			for _, nd := range cl.nodes {
				// The first superstep built the routes from them.
				nd.ref, nd.masters, nd.mirrors = nil, nil, nil
			}
		}
	}
}

// TestLoadCarvesListsWithoutSlack: every list load carves out of an arena —
// the presence lists a master's replica table adopts included — has cap ==
// len, so appending to any slot's lists, as migration and rebirth do when
// they attach edges and register replicas, copies the list out and leaves
// every other slot's lists bit-identical. The graph is unweighted, so load
// stores no weight list at all, and the first non-unit weight appended
// materialises one with the implicit ones in front.
func TestLoadCarvesListsWithoutSlack(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(400, 2400, 4242)
		cfg := DefaultConfig(mode, 4)
		cfg.FT.K = 2
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range cl.nodes {
			want := make([]topo, len(nd.topo))
			tableSlack := func(rt *replicaTable) int {
				return cap(rt.nodes) - len(rt.nodes) + cap(rt.pos) - len(rt.pos) +
					cap(rt.ftOnly) - len(rt.ftOnly) + cap(rt.mirrorOf) - len(rt.mirrorOf)
			}
			for i := range nd.topo {
				tp := &nd.topo[i]
				want[i] = topo{inNbr: slices.Clone(tp.inNbr), outNbr: slices.Clone(tp.outNbr)}
				slack := cap(tp.inNbr) - len(tp.inNbr) + cap(tp.outNbr) - len(tp.outNbr)
				if nd.hot[i].isMaster() {
					slack += tableSlack(nd.replicas(int32(i)))
				}
				if m := nd.mirror(int32(i)); m != nil {
					slack += tableSlack(&m.mTable)
					slack += cap(m.mEdges.src) - len(m.mEdges.src) + cap(m.mEdges.srcMaster) - len(m.mEdges.srcMaster)
					if m.mEdges.wt != nil {
						t.Fatalf("%v node %d slot %d: mirror stores %d unit weights", mode, nd.id, i, len(m.mEdges.wt))
					}
				}
				if slack != 0 {
					t.Fatalf("%v node %d slot %d: carved lists have %d elements of slack", mode, nd.id, i, slack)
				}
				if tp.inWt != nil {
					t.Fatalf("%v node %d slot %d: topology stores %d unit weights", mode, nd.id, i, len(tp.inWt))
				}
			}
			for i := range nd.topo {
				nd.attachEdge(int32(i), int32(i), -1)
			}
			for i := range nd.topo {
				tp, n := &nd.topo[i], len(want[i].inNbr)
				if !slices.Equal(tp.inNbr[:n], want[i].inNbr) || !slices.Equal(tp.outNbr[:len(want[i].outNbr)], want[i].outNbr) {
					t.Fatalf("%v node %d slot %d: a neighbour's append overwrote its lists", mode, nd.id, i)
				}
				if len(tp.inWt) != n+1 || tp.inWt[n] != -1 || slices.ContainsFunc(tp.inWt[:n], func(w float64) bool { return w != 1 }) {
					t.Fatalf("%v node %d slot %d: weights after a -1 append are %v, want %d ones then -1", mode, nd.id, i, tp.inWt, n)
				}
			}
		}
	}
}

// grownMetadataSnapshot is the metadata snapshot encoded by appending to a
// nil buffer, as before its count pass existed.
func grownMetadataSnapshot[V, A any](nd *node[V, A]) []byte {
	buf := putU32(nil, uint32(len(nd.hot)))
	for i := range nd.hot {
		e, t := &nd.hot[i], &nd.topo[i]
		buf = putU32(buf, uint32(e.id))
		buf = putU8(buf, uint8(e.flags))
		buf = putI32(buf, e.inDeg)
		buf = putI32(buf, e.outDeg)
		buf = putU32(buf, uint32(len(t.inNbr)))
		for k, p := range t.inNbr {
			buf = putI32(buf, p)
			buf = putF64(buf, t.inWt.at(k))
		}
	}
	return buf
}

// TestMetadataSnapshotSizedExactly: encodeMetadataSnapshot's count pass sizes
// a fresh buffer to the byte, and the bytes equal the append-grown encoding —
// also when every node encodes through one reused buffer, as retainPristine
// does, so a larger node before a smaller one leaves no stale tail.
func TestMetadataSnapshotSizedExactly(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		cl, err := NewCluster[float64, float64](DefaultConfig(mode, 4), datasets.Tiny(400, 2400, 4243), fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		var reused []byte
		for _, nd := range cl.nodes {
			want := grownMetadataSnapshot(nd)
			got := cl.encodeMetadataSnapshot(nil, nd)
			if len(got) != cap(got) {
				t.Errorf("%v node %d: snapshot is %d bytes in a %d-byte buffer", mode, nd.id, len(got), cap(got))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v node %d: snapshot differs from the append-grown encoding", mode, nd.id)
			}
			if reused = cl.encodeMetadataSnapshot(reused, nd); !bytes.Equal(reused, want) {
				t.Errorf("%v node %d: snapshot through the reused buffer differs from the append-grown encoding", mode, nd.id)
			}
		}
	}
}
