package core

import (
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

// TestSuperstepNeverTouchesMeta is the point of the hot/meta split: once the
// sync routes are flattened, a failure-free superstep (compute, sync stage,
// receive, barrier, commit — both engines, replication on) reads no field of
// the meta table. The test takes the table away; any access would index a
// nil slice and panic.
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
				nd.meta = nil // the first superstep built the routes from it
			}
		}
	}
}

// TestLoadCarvesListsWithoutSlack: every list load carves out of an arena
// has cap == len, so appending to any slot's lists — as migration and
// rebirth do when they attach edges and register replicas — copies the list
// out and leaves every other slot's lists bit-identical.
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
			for i := range nd.topo {
				tp, m := &nd.topo[i], &nd.meta[i]
				want[i] = topo{slices.Clone(tp.inNbr), slices.Clone(tp.inWt), slices.Clone(tp.outNbr)}
				slack := cap(tp.inNbr) - len(tp.inNbr) + cap(tp.inWt) - len(tp.inWt) + cap(tp.outNbr) - len(tp.outNbr)
				for _, rt := range []*replicaTable{&m.replicas, &m.mTable} {
					slack += cap(rt.pos) - len(rt.pos) + cap(rt.mirrorOf) - len(rt.mirrorOf)
				}
				slack += cap(m.mTable.nodes) - len(m.mTable.nodes) + cap(m.mTable.ftOnly) - len(m.mTable.ftOnly)
				slack += cap(m.mEdges.src) - len(m.mEdges.src) + cap(m.mEdges.wt) - len(m.mEdges.wt)
				slack += cap(m.mEdges.srcMaster) - len(m.mEdges.srcMaster)
				if slack != 0 {
					t.Fatalf("%v node %d slot %d: carved lists have %d elements of slack", mode, nd.id, i, slack)
				}
			}
			for i := range nd.topo {
				nd.attachEdge(int32(i), int32(i), -1)
			}
			for i := range nd.topo {
				tp, n := &nd.topo[i], len(want[i].inNbr)
				if !slices.Equal(tp.inNbr[:n], want[i].inNbr) || !slices.Equal(tp.inWt[:n], want[i].inWt) ||
					!slices.Equal(tp.outNbr[:len(want[i].outNbr)], want[i].outNbr) {
					t.Fatalf("%v node %d slot %d: a neighbour's append overwrote its lists", mode, nd.id, i)
				}
			}
		}
	}
}
