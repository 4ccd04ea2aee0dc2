package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// fakePR is a minimal always-active program for white-box tests.
type fakePR struct{}

func (fakePR) Name() string              { return "fake" }
func (fakePR) AlwaysActive() bool        { return true }
func (fakePR) CanRecomputeSelfish() bool { return false }
func (fakePR) Init(graph.VertexID, VertexInfo) (float64, bool) {
	return 1, true
}
func (fakePR) Gather(_ graph.VertexID, in InEdges[float64]) float64 {
	sum := in.Value(0)
	for k := 1; k < in.Len(); k++ {
		sum += in.Value(k)
	}
	return sum
}
func (fakePR) Merge(a, b float64) float64 { return a + b }
func (fakePR) Apply(_ graph.VertexID, _ VertexInfo, _ float64, acc float64, _ bool, _ int) (float64, bool) {
	return acc + 1, true
}
func (fakePR) ValueCodec() Codec[float64] { return Float64Codec{} }
func (fakePR) AccCodec() Codec[float64]   { return Float64Codec{} }

// TestRebirthPreservesLayout is the §5.1.2 claim: after Rebirth, every
// vertex sits at exactly the array position it occupied on the crashed
// node, so positional recovery messages need no coordination.
func TestRebirthPreservesLayout(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(200, 1000, 99)
		cfg := DefaultConfig(mode, 3)
		cfg.MaxIter = 4
		cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 2, Phase: FailBeforeBarrier, Nodes: []int{1}}}
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		before := map[graph.VertexID]int32{}
		var masters, mirrors int
		for i := range cl.nodes[1].hot {
			e := &cl.nodes[1].hot[i]
			before[e.id] = int32(i)
			if e.isMaster() {
				masters++
			}
			if e.isMirror() {
				mirrors++
			}
		}
		if _, err := cl.Run(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		after := cl.nodes[1]
		if len(after.hot) != len(before) || len(after.inStart) != len(before)+1 || len(after.ref) != len(before) {
			t.Fatalf("%v: table lengths changed: %d -> %d/%d/%d", mode, len(before), len(after.hot), len(after.inStart)-1, len(after.ref))
		}
		var mastersAfter, mirrorsAfter int
		for i := range after.hot {
			e := &after.hot[i]
			if before[e.id] != int32(i) {
				t.Fatalf("%v: vertex %d moved from %d to %d", mode, e.id, before[e.id], i)
			}
			if e.isMaster() {
				mastersAfter++
			}
			if e.isMirror() {
				mirrorsAfter++
			}
		}
		if masters != mastersAfter {
			t.Errorf("%v: master count changed %d -> %d", mode, masters, mastersAfter)
		}
		if mirrors != mirrorsAfter {
			t.Errorf("%v: mirror count changed %d -> %d", mode, mirrors, mirrorsAfter)
		}
	}
}

// TestRebirthRestoresSlots: Rebirth recreates each of the crashed node's
// slots at its position (§5.1.2) as the fault-free run holds it there, so
// after the job every slot on the reborn node equals the fault-free run's
// slot, under an always-active program and under one whose activity replay
// rebuilds (§5.1.3). Only lastTouchedIter (read by logged recovery alone),
// the staged fields, which commit does not clear, and a non-master's active
// flag are left out: vertex-cut's R1 rewrites a replica's flag before any
// read, and edge-cut reads the flag only on masters.
func TestRebirthRestoresSlots(t *testing.T) {
	g := datasets.Tiny(300, 1500, 7)
	for _, prog := range []Program[float64, float64]{fakePR{}, fakeSSSP{}} {
		for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
			for _, k := range []int{1, 2} {
				name := fmt.Sprintf("%s/%v/K=%d", prog.Name(), mode, k)
				slots := func(crash bool) []hot[float64] {
					cfg := DefaultConfig(mode, 4)
					cfg.FT.K = k
					cfg.MaxIter = 3
					if crash {
						cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 2, Phase: FailAfterBarrier, Nodes: []int{1}}}
					}
					cl, err := NewCluster(cfg, g, prog)
					if err != nil {
						t.Fatal(err)
					}
					res, err := cl.Run()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if crash && len(res.Recoveries) != 1 {
						t.Fatalf("%s: %d recoveries, want 1", name, len(res.Recoveries))
					}
					s := slices.Clone(cl.nodes[1].hot)
					for i := range s {
						s[i].lastTouchedIter = 0
						s[i].hasPending, s[i].pendingActive, s[i].pendingScatter, s[i].pendingValue = false, false, false, 0
						if !s[i].isMaster() {
							s[i].active = false
						}
					}
					return s
				}
				want, got := slots(false), slots(true)
				if len(got) != len(want) {
					t.Fatalf("%s: %d slots, want %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: slot %d = %+v, want %+v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLoadInvariants checks the FT construction rules of §4: at least K
// replicas per vertex, FT replicas are mirrors, and masters know their
// replicas' exact positions.
func TestLoadInvariants(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		for _, k := range []int{1, 2, 3} {
			g := datasets.Tiny(300, 1500, 123)
			cfg := DefaultConfig(mode, 6)
			cfg.FT.K = k
			cfg.MaxIter = 1
			cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
			if err != nil {
				t.Fatal(err)
			}
			presences := 0
			for _, nd := range cl.nodes {
				presences += len(nd.hot)
			}
			if rf, want := cl.ReplicationFactor(), float64(presences)/float64(g.NumVertices()); rf != want || rf < float64(1+k) {
				t.Fatalf("%v K=%d: ReplicationFactor %v, want %v (at least %d)", mode, k, rf, want, 1+k)
			}
			for _, nd := range cl.nodes {
				for i := range nd.hot {
					e := &nd.hot[i]
					if !e.isMaster() {
						continue
					}
					rt := nd.replicas(int32(i))
					if len(rt.nodes) < k {
						t.Fatalf("%v K=%d: vertex %d has %d replicas", mode, k, e.id, len(rt.nodes))
					}
					if len(rt.mirrorOf) != k {
						t.Fatalf("%v K=%d: vertex %d has %d mirrors", mode, k, e.id, len(rt.mirrorOf))
					}
					seen := map[int16]bool{int16(nd.id): true}
					for ri, rn := range rt.nodes {
						if seen[rn] {
							t.Fatalf("%v: vertex %d replicated twice on node %d", mode, e.id, rn)
						}
						seen[rn] = true
						re := &cl.nodes[rn].hot[rt.pos[ri]]
						if re.id != e.id {
							t.Fatalf("%v: vertex %d replicaPos points at vertex %d", mode, e.id, re.id)
						}
						if re.isMaster() {
							t.Fatalf("%v: replica of %d marked master", mode, e.id)
						}
						if re.masterNode != int16(nd.id) || re.masterPos != int32(i) {
							t.Fatalf("%v: replica of %d has wrong master pointer", mode, e.id)
						}
						if rt.ftOnly[ri] != re.isFTOnly() {
							t.Fatalf("%v: FT flag mismatch for vertex %d", mode, e.id)
						}
					}
					// Every FT-only replica must be a mirror (§4.2).
					for ri := range rt.nodes {
						if !rt.ftOnly[ri] {
							continue
						}
						isMirror := false
						for _, idx := range rt.mirrorOf {
							if int(idx) == ri {
								isMirror = true
							}
						}
						if !isMirror {
							t.Fatalf("%v: FT replica of vertex %d is not a mirror", mode, e.id)
						}
					}
					for _, idx := range rt.mirrorOf {
						rnd := cl.nodes[rt.nodes[idx]]
						re, rm := &rnd.hot[rt.pos[idx]], rnd.mirror(rt.pos[idx])
						if !re.isMirror() || rm == nil {
							t.Fatalf("%v: mirror of vertex %d holds no mirror state", mode, e.id)
						}
						if len(rnd.tables.at(rm.table).nodes) != len(rt.nodes) {
							t.Fatalf("%v: mirror of %d has stale table", mode, e.id)
						}
					}
				}
			}
		}
	}
}

// TestMirrorBalance checks the greedy mirror assignment spreads mirrors
// (§4.2): no node should hold a wildly disproportionate share.
func TestMirrorBalance(t *testing.T) {
	g := datasets.Tiny(2000, 10000, 321)
	cfg := DefaultConfig(EdgeCutMode, 8)
	cfg.MaxIter = 1
	cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	total := 0
	for _, nd := range cl.nodes {
		for i := range nd.hot {
			if nd.hot[i].isMirror() {
				counts[nd.id]++
				total++
			}
		}
	}
	mean := total / 8
	for n, cnt := range counts {
		if cnt > 2*mean || cnt < mean/2 {
			t.Errorf("node %d holds %d mirrors, mean %d: unbalanced", n, cnt, mean)
		}
	}
}

// checkVertexTables asserts the vertex-table invariants on every alive node:
// hot and ref are position-parallel, the topology is a CSR over the same
// slots (checkCSR) and the role slabs' handles are sound (checkArenas); a
// slot has a master-slab handle
// iff it is a master and a mirror-slab handle iff it is a mirror; every slab
// entry is named by exactly one slot (a mirror entry by the slot it points
// back at), so none is orphaned; and the dense id index is the exact inverse
// of hot[i].id. Across nodes, the replica tables are the sync routes
// (checkReplicaRows), and under the replicating recoveries they meet the FT
// invariants (checkFTInvariants).
func checkVertexTables[V, A any](t *testing.T, cl *Cluster[V, A], when string) {
	t.Helper()
	claim := func(owner []int32, h int32, slot int) bool {
		if h < 0 || int(h) >= len(owner) || owner[h] != noSlab {
			return false
		}
		owner[h] = int32(slot)
		return true
	}
	for _, nd := range cl.aliveNodes() {
		if len(nd.ref) != len(nd.hot) {
			t.Fatalf("%s: node %d: hot/ref lengths %d/%d", when, nd.id, len(nd.hot), len(nd.ref))
		}
		checkCSR(t, nd, when)
		checkArenas(t, nd, when)
		if len(nd.index) != cl.g.NumVertices() {
			t.Fatalf("%s: node %d: index covers %d vertices, graph has %d", when, nd.id, len(nd.index), cl.g.NumVertices())
		}
		masterOwner, mirrorOwner := make([]int32, len(nd.masters)), make([]int32, len(nd.mirrors))
		for _, owner := range [][]int32{masterOwner, mirrorOwner} {
			for h := range owner {
				owner[h] = noSlab
			}
		}
		for i := range nd.hot {
			e, r := &nd.hot[i], nd.ref[i]
			if (r.master != noSlab) != e.isMaster() {
				t.Fatalf("%s: node %d slot %d (vertex %d): master %v, master handle %d", when, nd.id, i, e.id, e.isMaster(), r.master)
			}
			if (r.mirror != noSlab) != e.isMirror() {
				t.Fatalf("%s: node %d slot %d (vertex %d): mirror %v, mirror handle %d", when, nd.id, i, e.id, e.isMirror(), r.mirror)
			}
			if r.master != noSlab && !claim(masterOwner, r.master, i) {
				t.Fatalf("%s: node %d slot %d: master handle %d out of range or shared", when, nd.id, i, r.master)
			}
			if r.mirror != noSlab {
				if !claim(mirrorOwner, r.mirror, i) {
					t.Fatalf("%s: node %d slot %d: mirror handle %d out of range or shared", when, nd.id, i, r.mirror)
				}
				if back := nd.mirrors[r.mirror].slot; back != int32(i) {
					t.Fatalf("%s: node %d slot %d: its mirror entry points back at slot %d", when, nd.id, i, back)
				}
			}
			if p := nd.index[e.id]; p != int32(i) {
				t.Fatalf("%s: node %d: index maps vertex %d to %d, it sits at %d", when, nd.id, e.id, p, i)
			}
		}
		for _, owner := range [][]int32{masterOwner, mirrorOwner} {
			for h, slot := range owner {
				if slot == noSlab {
					t.Fatalf("%s: node %d: slab entry %d of %d is named by no slot", when, nd.id, h, len(owner))
				}
			}
		}
		present := 0
		for _, p := range nd.index {
			if p != noPos {
				present++
			}
		}
		if present != len(nd.hot) {
			t.Fatalf("%s: node %d: index names %d vertices, the node holds %d", when, nd.id, present, len(nd.hot))
		}
	}
	checkReplicaRows(t, cl, when)
	if cl.cfg.Recovery == RecoverRebirth || cl.cfg.Recovery == RecoverMigration {
		checkFTInvariants(t, cl, when)
	}
}

// checkFTInvariants asserts what load leaves and every completed incident
// restores (§4.1, §4.2): each master on an alive node, selfish or not, has
// at least min(K, alive-1) replica rows and exactly that many mirrors, and
// no slot carries recovery work (flagStale, flagPromoted).
func checkFTInvariants[V, A any](t *testing.T, cl *Cluster[V, A], when string) {
	t.Helper()
	alive := cl.aliveNodes()
	want := min(cl.cfg.FT.K, len(alive)-1)
	for _, nd := range alive {
		for i := range nd.hot {
			e := &nd.hot[i]
			if work := e.flags & (flagStale | flagPromoted); work != 0 {
				t.Fatalf("%s: node %d slot %d (vertex %d): recovery flags %#x left set", when, nd.id, i, e.id, work)
			}
			if !e.isMaster() {
				continue
			}
			if rt := nd.replicas(int32(i)); len(rt.nodes) < want || len(rt.mirrorOf) != want {
				t.Fatalf("%s: node %d slot %d (vertex %d): %d replicas and %d mirrors, want at least %d and exactly %d",
					when, nd.id, i, e.id, len(rt.nodes), len(rt.mirrorOf), want, want)
			}
		}
	}
}

// checkReplicaRows asserts that the master tables, which the sync stages
// walk as their destination lists, match the slots they name: every row
// (node, pos) names a live slot that holds the same vertex, is not a master,
// points back at the master through masterNode/masterPos and has the row's
// FT-only flag; and every replica slot is named by exactly one row.
func checkReplicaRows[V, A any](t *testing.T, cl *Cluster[V, A], when string) {
	t.Helper()
	named := make([][]int, len(cl.nodes)) // rows naming each slot, nil for a dead node
	for _, nd := range cl.aliveNodes() {
		named[nd.id] = make([]int, len(nd.hot))
	}
	for _, nd := range cl.aliveNodes() {
		for i := range nd.hot {
			if !nd.hot[i].isMaster() {
				continue
			}
			id, rt := nd.hot[i].id, nd.replicas(int32(i))
			for k, rn := range rt.nodes {
				p := rt.pos[k]
				if rn < 0 || int(rn) >= len(named) || p < 0 || int(p) >= len(named[rn]) {
					t.Fatalf("%s: node %d slot %d (vertex %d): row %d names node %d pos %d, no live slot", when, nd.id, i, id, k, rn, p)
				}
				r := &cl.nodes[rn].hot[p]
				if r.id != id || r.isMaster() {
					t.Fatalf("%s: node %d slot %d (vertex %d): row %d names node %d pos %d, which holds vertex %d (master %v)", when, nd.id, i, id, k, rn, p, r.id, r.isMaster())
				}
				if int(r.masterNode) != nd.id || r.masterPos != int32(i) {
					t.Fatalf("%s: node %d slot %d (vertex %d): replica at node %d pos %d points back at node %d pos %d", when, nd.id, i, id, rn, p, r.masterNode, r.masterPos)
				}
				if r.isFTOnly() != rt.ftOnly[k] {
					t.Fatalf("%s: node %d slot %d (vertex %d): row %d is FT-only %v, the replica at node %d pos %d %v", when, nd.id, i, id, k, rt.ftOnly[k], rn, p, r.isFTOnly())
				}
				named[rn][p]++
			}
		}
	}
	for _, nd := range cl.aliveNodes() {
		for i, n := range named[nd.id] {
			if !nd.hot[i].isMaster() && n != 1 {
				t.Fatalf("%s: node %d slot %d (vertex %d): replica named by %d table rows, want 1", when, nd.id, i, nd.hot[i].id, n)
			}
		}
	}
}

// checkCSR asserts a node's topology is well-formed: both offset arrays have
// one entry per slot plus one, start at 0 and never decrease, and end at
// their arena's length; inWt is nil or parallel to inNbr; the out-lists hold
// exactly the reversed in-edges, with multiplicity.
func checkCSR[V, A any](t *testing.T, nd *node[V, A], when string) {
	t.Helper()
	for _, l := range []struct {
		name         string
		start, arena []int32
	}{{"in", nd.inStart, nd.inNbr}, {"out", nd.outStart, nd.outNbr}} {
		if len(l.start) != len(nd.hot)+1 || l.start[0] != 0 {
			t.Fatalf("%s: node %d: %s offsets have %d entries starting at %v, want %d starting at 0", when, nd.id, l.name, len(l.start), l.start[:min(1, len(l.start))], len(nd.hot)+1)
		}
		for i := 1; i < len(l.start); i++ {
			if l.start[i] < l.start[i-1] {
				t.Fatalf("%s: node %d: %s offset %d decreases %d -> %d", when, nd.id, l.name, i, l.start[i-1], l.start[i])
			}
		}
		if last := l.start[len(l.start)-1]; int(last) != len(l.arena) {
			t.Fatalf("%s: node %d: %s offsets end at %d, the arena holds %d", when, nd.id, l.name, last, len(l.arena))
		}
	}
	if nd.inWt != nil && len(nd.inWt) != len(nd.inNbr) {
		t.Fatalf("%s: node %d: %d weights for %d in-edges", when, nd.id, len(nd.inWt), len(nd.inNbr))
	}
	var in, out [][2]int32
	for i := range nd.hot {
		nbr, _ := nd.in(i)
		for _, sp := range nbr {
			in = append(in, [2]int32{sp, int32(i)})
		}
		for _, dp := range nd.out(i) {
			out = append(out, [2]int32{int32(i), dp})
		}
	}
	cmp := func(a, b [2]int32) int { return slices.Compare(a[:], b[:]) }
	slices.SortFunc(in, cmp)
	slices.SortFunc(out, cmp)
	if !slices.Equal(in, out) {
		t.Fatalf("%s: node %d: the out-lists are not the reversed in-lists", when, nd.id)
	}
}

// checkArenas asserts a node's arenas are sound: each arena's arrays are
// parallel (the edge weights nil or as long as the sources); every master
// handle and every mirror's table and edge handle lies inside its arena and
// names a table with no more mirror indexes than rows; every view it yields
// has cap == len; and no two handles' ranges overlap.
func checkArenas[V, A any](t *testing.T, nd *node[V, A], when string) {
	t.Helper()
	tb, eb := &nd.tables, &nd.edges
	if rows := len(tb.nodes); len(tb.pos) != rows || len(tb.ftOnly) != rows || len(tb.mirrorOf) != rows {
		t.Fatalf("%s: node %d: table arena arrays %d/%d/%d/%d long", when, nd.id, rows, len(tb.pos), len(tb.ftOnly), len(tb.mirrorOf))
	}
	if eb.wt != nil && len(eb.wt) != len(eb.src) {
		t.Fatalf("%s: node %d: edge arena arrays %d/%d long", when, nd.id, len(eb.src), len(eb.wt))
	}
	var tables, edges [][2]int // live [lo, hi) ranges
	table := func(h tableRef, who string) {
		lo, hi := int(h.off), int(h.off)+int(h.rows)
		if lo < 0 || hi > len(tb.nodes) || h.mirrors > h.rows {
			t.Fatalf("%s: node %d: %s table %+v outside the %d-row arena or with more mirrors than rows", when, nd.id, who, h, len(tb.nodes))
		}
		v := tb.at(h)
		if cap(v.nodes) != len(v.nodes) || cap(v.pos) != len(v.pos) || cap(v.ftOnly) != len(v.ftOnly) || cap(v.mirrorOf) != len(v.mirrorOf) {
			t.Fatalf("%s: node %d: %s table view has slack", when, nd.id, who)
		}
		if hi > lo {
			tables = append(tables, [2]int{lo, hi})
		}
	}
	for i, r := range nd.ref {
		if r.master != noSlab {
			table(nd.masters[r.master], fmt.Sprintf("slot %d's", i))
		}
	}
	for _, m := range nd.mirrors {
		who := fmt.Sprintf("mirror slot %d's", m.slot)
		table(m.table, who)
		lo, hi := int(m.edges.off), int(m.edges.off+m.edges.n)
		if lo < 0 || hi < lo || hi > len(eb.src) {
			t.Fatalf("%s: node %d: %s edges %+v outside the %d-edge arena", when, nd.id, who, m.edges, len(eb.src))
		}
		v := eb.at(m.edges)
		if cap(v.src) != len(v.src) || cap(v.wt) != len(v.wt) {
			t.Fatalf("%s: node %d: %s edge view has slack", when, nd.id, who)
		}
		if hi > lo {
			edges = append(edges, [2]int{lo, hi})
		}
	}
	for _, ranges := range [][][2]int{tables, edges} {
		slices.SortFunc(ranges, func(a, b [2]int) int { return a[0] - b[0] })
		for k := 1; k < len(ranges); k++ {
			if ranges[k][0] < ranges[k-1][1] {
				t.Fatalf("%s: node %d: arena ranges %v and %v overlap", when, nd.id, ranges[k-1], ranges[k])
			}
		}
	}
}

// TestVertexTableInvariants checks the vertex tables after load and after a
// crash under every strategy and both engines; Rebirth and Migration also run
// at K=2 with a second crash mid-recovery, where Migration restarts, promotes
// and re-selects mirrors, demoting some.
func TestVertexTableInvariants(t *testing.T) {
	g := datasets.Tiny(300, 1800, 910)
	crash := ChaosEvent{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}}
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		for _, tc := range []struct {
			rec    RecoveryKind
			k      int
			during string
		}{
			{RecoverRebirth, 1, ""},
			{RecoverRebirth, 2, "rebirth:reload"},
			{RecoverMigration, 1, ""},
			{RecoverMigration, 2, "migration:edges"},
			{RecoverCheckpoint, 0, ""},
			{RecoverLogged, 0, ""},
		} {
			name := fmt.Sprintf("%v/%v/K=%d", mode, tc.rec, tc.k)
			if tc.during != "" {
				name += "/" + tc.during
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig(mode, 6)
				cfg.Recovery = tc.rec
				cfg.MaxIter = 6
				cfg.WorkersPerNode = 4 // Rebirth places records chunk-parallel into the slabs
				cfg.FT.K = tc.k        // unread by checkpoint and logged
				cfg.Checkpoint = CheckpointConfig{Interval: 2}
				fresh, err := NewCluster[float64, float64](cfg, g, fakePR{})
				if err != nil {
					t.Fatal(err)
				}
				checkVertexTables(t, fresh, "after load")
				cfg.Chaos = []ChaosEvent{crash}
				if tc.during != "" {
					cfg.Chaos = append(cfg.Chaos, ChaosEvent{Kind: ChaosCrashDuringRecovery, During: tc.during, Nodes: []int{4}})
				}
				cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Run(); err != nil {
					t.Fatal(err)
				}
				if len(cl.recoveries) == 0 {
					t.Fatal("no recovery happened; the test exercised nothing")
				}
				checkVertexTables(t, cl, "after the crash")
			})
		}
	}
}

// TestChaosInterruptMatrix interrupts the recovery of node 1's crash at
// iteration 3 by a second crash at every phase label of Rebirth and
// Migration, of every surviving node, in both modes (80 cells). Each
// restarted pass must complete to vertex tables that satisfy the FT
// invariants again (checkVertexTables, checkFTInvariants) and to the
// fault-free values.
func TestChaosInterruptMatrix(t *testing.T) {
	g := datasets.Tiny(700, 4200, 91)
	const nodes = 6
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		for _, rec := range []RecoveryKind{RecoverRebirth, RecoverMigration} {
			cfg := DefaultConfig(mode, nodes)
			cfg.Recovery = rec
			cfg.MaxIter = 6
			cfg.FT.K = 2
			cfg.MaxRebirths = 8
			want := runFake(t, cfg, g)
			for _, label := range RecoveryPhaseLabels(rec) {
				for victim := range nodes {
					if victim == 1 {
						continue
					}
					name := fmt.Sprintf("%v/%v/%s/%d", mode, rec, label, victim)
					t.Run(name, func(t *testing.T) {
						cfg := cfg
						cfg.Chaos = []ChaosEvent{
							{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}},
							{Kind: ChaosCrashDuringRecovery, During: label, Nodes: []int{victim}},
						}
						got := runFake(t, cfg, g)
						if n := len(got.Recoveries); n == 0 || len(got.Recoveries[n-1].Failed) != 2 {
							t.Fatalf("recoveries %+v: the last one must cover both victims", got.Recoveries)
						}
						for v := range want.Values {
							if d := math.Abs(got.Values[v] - want.Values[v]); d > 1e-9*math.Max(1, math.Abs(want.Values[v])) {
								t.Fatalf("vertex %d: %v, fault-free %v", v, got.Values[v], want.Values[v])
							}
						}
					})
				}
			}
		}
	}
}

// runFake runs fakePR under cfg and checks the vertex tables it leaves.
func runFake(t *testing.T, cfg Config, g *graph.Graph) *Result[float64] {
	t.Helper()
	cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkVertexTables(t, cl, "after the run")
	return res
}
