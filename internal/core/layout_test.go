package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// TestHotSlotFitsACacheLine pins the hot table's element size: a gather's
// random read of a neighbour must stay within one 64-byte line. The sizes
// are pinned exactly, so a field added to the slot fails here.
func TestHotSlotFitsACacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(hot[float64]{}); sz > 48 {
		t.Errorf("hot[float64] is %d bytes, want <= 48", sz)
	}
	if sz := unsafe.Sizeof(hot[int32]{}); sz > 40 {
		t.Errorf("hot[int32] is %d bytes, want <= 40", sz)
	}
}

// TestRecoveryRecordHoldsTravellingFields pins a decoded recovery record's
// size: it keeps only the fields that travel (recSlot), not a whole hot slot,
// whose staged fields would cost 16 more bytes a record.
func TestRecoveryRecordHoldsTravellingFields(t *testing.T) {
	if sz := unsafe.Sizeof(recoveryRecord[float64]{}); sz > 56 {
		t.Errorf("recoveryRecord[float64] is %d bytes, want <= 56", sz)
	}
}

// TestSuperstepNeverTouchesMeta is the point of the hot/metadata split: a
// failure-free superstep (compute, sync stage, receive, barrier, commit —
// both engines, replication on) reads a master's own table handle and rows,
// its sync destinations, but no mirror state: not the mirror slab, not the
// table arena's mirror indexes and not the edge arena. The test takes those
// away; any access would index a nil slice and panic.
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
		for _, nd := range cl.nodes {
			nd.mirrors, nd.tables.mirrorOf, nd.edges = nil, nil, rawEdges{}
		}
		for iter := 0; iter < 4; iter++ {
			cl.superstep(iter)
			cl.barrier()
			cl.commit(iter)
			cl.iter++
		}
	}
}

// TestLoadCarvesListsWithoutSlack: every list view load leaves in the
// arenas — a master's replica table, a mirror's copy of it and its in-edges —
// has cap == len, so an append through a view copies the list out and leaves
// every other slot's lists bit-identical. The graph is unweighted, so load
// stores no weight list at all, neither in the topology nor in a mirror's
// edges.
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
					rt := nd.replicas(int32(i))
					slack += tableSlack(&rt)
				}
				if m := nd.mirror(int32(i)); m != nil {
					mt, me := nd.tables.at(m.table), nd.edges.at(m.edges)
					slack += tableSlack(&mt)
					slack += cap(me.src) - len(me.src)
					if me.wt != nil {
						t.Fatalf("%v node %d slot %d: mirror stores %d unit weights", mode, nd.id, i, len(me.wt))
					}
				}
				if slack != 0 {
					t.Fatalf("%v node %d slot %d: list views have %d elements of slack", mode, nd.id, i, slack)
				}
			}
		}
	}
}

// TestReplicaTableArena drives the node methods that write the arenas on a
// loaded node (edge-cut, K=2): shrinking a table keeps it in place; growing
// one copies it to the arena's tail and grows it there in place the next
// time; both leave every other slot's lists bit-identical. Promotion moves a
// mirror's table handle without copying a row, and landing a round of
// records grows each arena at most once. The handle sizes are pinned, so a
// slice header added back to either role slab fails here.
func TestReplicaTableArena(t *testing.T) {
	if sz := unsafe.Sizeof(tableRef{}); sz > 8 {
		t.Errorf("tableRef is %d bytes, want <= 8", sz)
	}
	if sz := unsafe.Sizeof(mirrorState{}); sz > 20 {
		t.Errorf("mirrorState is %d bytes, want <= 20", sz)
	}
	g := datasets.Tiny(400, 2400, 4242)
	cfg := DefaultConfig(EdgeCutMode, 4)
	cfg.FT.K = 2
	cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	nd := cl.nodes[0]
	clone := func(v replicaTable) replicaTable {
		return replicaTable{slices.Clone(v.nodes), slices.Clone(v.pos), slices.Clone(v.ftOnly), slices.Clone(v.mirrorOf)}
	}
	// lists deep-copies every slot's table (a master's own, a mirror's copy)
	// and mirror in-edges.
	type lists struct {
		t replicaTable
		e rawEdges
	}
	snapshot := func() []lists {
		out := make([]lists, len(nd.hot))
		for i := range nd.hot {
			if nd.hot[i].isMaster() {
				out[i].t = clone(nd.replicas(int32(i)))
			} else if m := nd.mirror(int32(i)); m != nil {
				e := nd.edges.at(m.edges)
				out[i] = lists{clone(nd.tables.at(m.table)), rawEdges{slices.Clone(e.src), slices.Clone(e.wt)}}
			}
		}
		return out
	}
	unchanged := func(what string, before []lists, skip ...int) {
		t.Helper()
		for i, l := range snapshot() {
			if !slices.Contains(skip, i) && !reflect.DeepEqual(l, before[i]) {
				t.Fatalf("%s: slot %d's lists changed", what, i)
			}
		}
	}
	var mirrors []int
	shrink, grow := -1, -1
	for i := range nd.hot {
		switch {
		case nd.mirror(int32(i)) != nil:
			mirrors = append(mirrors, i)
		case !nd.hot[i].isMaster():
		case shrink < 0 && nd.masters[nd.ref[i].master].rows >= 2:
			shrink = i
		case grow < 0:
			grow = i
		}
	}
	if shrink < 0 || grow < 0 || len(mirrors) < 2 {
		t.Fatalf("node 0 has no master with two replicas, no other master or under two mirrors")
	}

	// Shrink in place: the first row goes.
	before, h := snapshot(), nd.masters[nd.ref[shrink].master]
	gone := before[shrink].t.nodes[0]
	if !nd.retainReplicas(int32(shrink), func(host int16) bool { return host != gone }) {
		t.Fatal("retainReplicas dropped no row")
	}
	if got := nd.replicas(int32(shrink)); &got.nodes[0] != &nd.tables.nodes[h.off] ||
		!slices.Equal(got.nodes, before[shrink].t.nodes[1:]) || !slices.Equal(got.pos, before[shrink].t.pos[1:]) {
		t.Fatalf("shrunk table %+v: %v, want %v in place", nd.masters[nd.ref[shrink].master], got.nodes, before[shrink].t.nodes[1:])
	}
	unchanged("shrink", before, shrink)

	// Grow: to the tail, then in place there.
	before, tail := snapshot(), len(nd.tables.nodes)
	nd.addRow(int32(grow), 3, 77, true)
	if h := nd.masters[nd.ref[grow].master]; int(h.off) != tail {
		t.Fatalf("grown table %+v does not start at the arena's old tail %d", h, tail)
	}
	nd.addRow(int32(grow), 2, 78, false)
	want := before[grow].t
	want.nodes, want.pos, want.ftOnly = append(want.nodes, 3, 2), append(want.pos, 77, 78), append(want.ftOnly, true, false)
	if h, got := nd.masters[nd.ref[grow].master], nd.replicas(int32(grow)); int(h.off) != tail || !reflect.DeepEqual(clone(got), want) {
		t.Fatalf("table grown twice: %+v %+v, want %+v at %d", h, got, want, tail)
	}
	unchanged("grow", before, grow)

	// Promotion moves the handle.
	before, tail = snapshot(), len(nd.tables.nodes)
	p := int32(mirrors[0])
	old := nd.mirror(p).table
	nd.promoteTable(p, func(int16) bool { return true })
	if h := nd.masters[nd.ref[p].master]; h.off != old.off || h.rows != old.rows || h.mirrors != 0 || len(nd.tables.nodes) != tail {
		t.Fatalf("promoted table %+v from mirror copy %+v, arena %d -> %d rows", h, old, tail, len(nd.tables.nodes))
	}
	if nd.mirror(p).table != (tableRef{}) {
		t.Fatalf("the promoted slot's mirror entry still names table %+v", nd.mirror(p).table)
	}
	unchanged("promote", before, int(p))

	// A round of records, each mirror's table and edge list 40 entries
	// longer than it holds (the round outgrows both arenas several times
	// over, so growth by doubling would reallocate repeatedly), lands at the
	// tail of arenas grown once.
	var buf []byte
	for _, i := range mirrors[1:] {
		e, m := &nd.hot[i], nd.mirror(int32(i))
		rt, ed := clone(nd.tables.at(m.table)), nd.edges.at(m.edges)
		for k := range 40 {
			rt.nodes, rt.pos, rt.ftOnly = append(rt.nodes, 3), append(rt.pos, int32(k)), append(rt.ftOnly, true)
			ed.src = append(ed.src, graph.VertexID(k))
		}
		buf = encodeRecoveryRecord(buf, Float64Codec{}, int32(i), &recSlot[float64]{id: e.id, flags: e.flags,
			masterNode: e.masterNode, masterPos: e.masterPos, inDeg: e.inDeg, outDeg: e.outDeg, value: e.value}, &rt, &ed)
	}
	recs, err := decodeRecordsOf(buf, Float64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	before = snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nd.landRecords(recs)
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; !raceEnabled && n > 5 {
		t.Errorf("landing %d records made %d allocations, want at most one per arena array (5)", len(recs), n)
	}
	for k, i := range mirrors[1:] {
		m := nd.mirror(int32(i))
		if got, e := clone(nd.tables.at(m.table)), nd.edges.at(m.edges); !reflect.DeepEqual(got, *recs[k].table) ||
			!slices.Equal(e.src, recs[k].edges.src) {
			t.Fatalf("mirror slot %d: landed %+v, want %+v", i, got, *recs[k].table)
		}
	}
	unchanged("land", before, mirrors[1:]...)
	checkArenas(t, nd, "after the arena writes")
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
// a fresh buffer to the byte, and the bytes equal the append-grown encoding.
func TestMetadataSnapshotSizedExactly(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		cl, err := NewCluster[float64, float64](DefaultConfig(mode, 4), datasets.Tiny(400, 2400, 4243), fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range cl.nodes {
			want := grownMetadataSnapshot(nd)
			got := cl.encodeMetadataSnapshot(nd)
			if len(got) != cap(got) {
				t.Errorf("%v node %d: snapshot is %d bytes in a %d-byte buffer", mode, nd.id, len(got), cap(got))
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v node %d: snapshot differs from the append-grown encoding", mode, nd.id)
			}
		}
	}
}
