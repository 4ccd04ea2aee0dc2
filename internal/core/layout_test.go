package core

import (
	"bytes"
	"reflect"
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
// they register replicas, copies the list out and leaves every other slot's
// lists bit-identical. The graph is unweighted, so load stores no weight list
// at all, neither in the topology nor in a mirror's edges.
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
			tableSlack := func(rt *replicaTable) int {
				return cap(rt.nodes) - len(rt.nodes) + cap(rt.pos) - len(rt.pos) +
					cap(rt.ftOnly) - len(rt.ftOnly) + cap(rt.mirrorOf) - len(rt.mirrorOf)
			}
			if nd.inWt != nil {
				t.Fatalf("%v node %d: topology stores %d unit weights", mode, nd.id, len(nd.inWt))
			}
			for i := range nd.hot {
				slack := 0
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
			}
		}
	}
}

// TestAppendEdges: one appendEdges call gives every slot the lists one
// append per batch edge would — its old in- and out-lists as a prefix, then
// its batch edges in batch order — into fresh arrays, leaving the replaced
// ones (which checkpoint's pristine copy may share) untouched. On the
// unweighted graph a batch of unit weights stores none, and a single -1
// materialises the weights with ones at every other edge.
func TestAppendEdges(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(400, 2400, 4242)
		cfg := DefaultConfig(mode, 4)
		cfg.FT.K = 2
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range cl.nodes {
			for _, neg := range []int{-1, len(nd.hot) / 2} {
				n := len(nd.hot)
				// The oracle: per-slot lists grown one edge at a time.
				in, wts, out := make([][]int32, n), make([][]float64, n), make([][]int32, n)
				for i := range n {
					nbr, wt := nd.in(i)
					in[i], out[i] = slices.Clone(nbr), slices.Clone(nd.out(i))
					for k := range nbr {
						wts[i] = append(wts[i], wt.at(k))
					}
				}
				old := nd.csr
				oldCopy := csr{slices.Clone(old.inStart), slices.Clone(old.outStart), slices.Clone(old.inNbr), slices.Clone(old.outNbr), slices.Clone(old.inWt)}
				b := newEdgeBatch(2 * n)
				for i := range 2 * n {
					sp, dp, wt := int32(i%n), int32((i*7+3)%n), 1.0
					if i == neg {
						wt = -1
					}
					b.add(sp, dp, wt)
					in[dp], wts[dp], out[sp] = append(in[dp], sp), append(wts[dp], wt), append(out[sp], dp)
				}
				nd.appendEdges(&b)
				if !reflect.DeepEqual(old, oldCopy) {
					t.Fatalf("%v node %d: appendEdges wrote into the arrays it replaced", mode, nd.id)
				}
				if (nd.inWt != nil) != (neg >= 0) {
					t.Fatalf("%v node %d: weights stored %v, a -1 appended %v", mode, nd.id, nd.inWt != nil, neg >= 0)
				}
				for i := range n {
					nbr, wt := nd.in(i)
					if !slices.Equal(nbr, in[i]) || !slices.Equal(nd.out(i), out[i]) {
						t.Fatalf("%v node %d slot %d: lists differ from one append per edge", mode, nd.id, i)
					}
					for k := range nbr {
						if wt.at(k) != wts[i][k] {
							t.Fatalf("%v node %d slot %d: weight %d is %v, want %v", mode, nd.id, i, k, wt.at(k), wts[i][k])
						}
					}
				}
				nd.localEdges += len(b.src)
			}
		}
		checkVertexTables(t, cl, mode.String()+" after appendEdges")
	}
}

// grownMetadataSnapshot is the metadata snapshot encoded by appending to a
// nil buffer, as before its count pass existed.
func grownMetadataSnapshot[V, A any](nd *node[V, A]) []byte {
	buf := putU32(nil, uint32(len(nd.hot)))
	for i := range nd.hot {
		e := &nd.hot[i]
		nbr, wt := nd.in(i)
		buf = putU32(buf, uint32(e.id))
		buf = putU8(buf, uint8(e.flags))
		buf = putI32(buf, e.inDeg)
		buf = putI32(buf, e.outDeg)
		buf = putU32(buf, uint32(len(nbr)))
		for k, p := range nbr {
			buf = putI32(buf, p)
			buf = putF64(buf, wt.at(k))
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
