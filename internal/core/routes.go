package core

// syncRoute is a node's precomputed sync-routing table: the master slots'
// replica tables (nodes/pos/ftOnly) flattened CSR-style into four parallel
// arrays. Entry i's replicas occupy [start[i], start[i+1]), empty for a
// non-master. The flat layout keeps the edge-cut sync and vertex-cut R1/R3
// hot loops off the role slabs, and rebuilding it is O(presences), so it is
// recomputed lazily (routeDirty) whenever recovery reshapes the replica
// tables.
//
// Build order is entry order then replica-index order — exactly the order
// the superstep loops used to walk the entry slices — so the emitted byte
// streams are bit-for-bit unchanged.
type syncRoute struct {
	start  []int32
	node   []int16
	pos    []int32
	ftOnly []bool
}

// scatterRoute is a vertex-cut node's precomputed scatter table, a CSR over
// slots beside syncRoute with the same lifecycle. Row i lists, in
// slot i's out-list order, the (masterNode, masterPos) of slot i's out-targets,
// so scatterMark streams the row without reading the targets' hot slots: a
// replica target's record is its activation notice (destination and payload),
// a master target's names this node and its own position (the pendingActive
// entry). Master targets are listed only for programs that are not
// always-active: commit never reads pendingActive otherwise. Edge-cut builds
// no scatter route: an edge lives on its target's master node, so every
// out-target is a master and the out-list itself is the list.
type scatterRoute struct {
	start []int32
	node  []int16
	pos   []int32
}

// sized returns s with length n, reallocating exactly — no append doubling —
// when its capacity falls short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		//imitator:hotalloc-ok route tables are rebuilt only after load or a recovery, then reused every superstep
		return make([]T, n)
	}
	return s[:n]
}

// rebuildRoute derives nd.route (and, under vertex-cut, nd.scatter) from the
// entry tables and clears routeDirty: a count pass sizes every array, a
// second pass fills them. Callers on the phase path invoke it from the
// per-node phase prologue, so each node's rebuild runs on the goroutine that
// owns it.
func (c *Cluster[V, A]) rebuildRoute(nd *node[V, A]) {
	n, total := len(nd.ref), 0
	for _, h := range nd.masters {
		total += int(h.rows)
	}
	rt := &nd.route
	rt.start, rt.node = sized(rt.start, n+1), sized(rt.node, total)
	rt.pos, rt.ftOnly = sized(rt.pos, total), sized(rt.ftOnly, total)
	k := 0
	for i := range nd.ref {
		rt.start[i] = int32(k)
		if h := nd.ref[i].master; h != noSlab {
			t := nd.tables.at(nd.masters[h])
			copy(rt.pos[k:], t.pos)
			copy(rt.ftOnly[k:], t.ftOnly)
			k += copy(rt.node[k:], t.nodes)
		}
	}
	rt.start[n] = int32(k)
	if c.vcut != nil {
		c.rebuildScatter(nd)
	}
	nd.routeDirty = false
}

// rebuildScatter derives nd.scatter from the out-lists and the targets' hot
// slots.
func (c *Cluster[V, A]) rebuildScatter(nd *node[V, A]) {
	n, total := len(nd.hot), 0
	for _, w := range nd.outNbr {
		if !c.always || !nd.hot[w].isMaster() {
			total++
		}
	}
	sr := &nd.scatter
	sr.start, sr.node, sr.pos = sized(sr.start, n+1), sized(sr.node, total), sized(sr.pos, total)
	k := 0
	for i := range n {
		sr.start[i] = int32(k)
		for _, w := range nd.out(i) {
			if we := &nd.hot[w]; !c.always || !we.isMaster() {
				sr.node[k], sr.pos[k] = we.masterNode, we.masterPos
				k++
			}
		}
	}
	sr.start[n] = int32(k)
}

// routeReady rebuilds the routing tables if load or a recovery invalidated
// them. Every phase that consults a route calls it in its prologue.
func (c *Cluster[V, A]) routeReady(nd *node[V, A]) {
	if nd.routeDirty {
		c.rebuildRoute(nd)
	}
}

// markRoutesDirty invalidates every alive node's routing tables (used by
// recoveries that may touch any replica table, master location or master
// flag, like Migration's promotion, pruning and FT-invariant repair).
func (c *Cluster[V, A]) markRoutesDirty() {
	for _, n := range c.nodes {
		if n != nil && n.alive {
			n.routeDirty = true
		}
	}
}
