package core

// syncRoute is a node's precomputed sync-routing table: the per-slot
// replica tables of the meta table (nodes/pos/ftOnly) flattened CSR-style
// into four parallel arrays. Entry i's replicas occupy [start[i],
// start[i+1]). The flat layout keeps the edge-cut sync and vertex-cut R1/R3
// hot loops off the meta table, and rebuilding it is O(presences), so it is
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

// rebuildRoute derives nd.route from the entry replica tables and clears
// routeDirty. Callers on the phase path invoke it from the per-node phase
// prologue, so each node's rebuild runs on the goroutine that owns it.
func (c *Cluster[V, A]) rebuildRoute(nd *node[V, A]) {
	rt := &nd.route
	rt.start = rt.start[:0]
	rt.node = rt.node[:0]
	rt.pos = rt.pos[:0]
	rt.ftOnly = rt.ftOnly[:0]
	for i := range nd.meta {
		rt.start = append(rt.start, int32(len(rt.node)))
		t := &nd.meta[i].replicas
		rt.node = append(rt.node, t.nodes...)
		rt.pos = append(rt.pos, t.pos...)
		rt.ftOnly = append(rt.ftOnly, t.ftOnly...)
	}
	rt.start = append(rt.start, int32(len(rt.node)))
	nd.routeDirty = false
}

// routeReady rebuilds the routing table if a recovery invalidated it.
func (c *Cluster[V, A]) routeReady(nd *node[V, A]) {
	if nd.routeDirty {
		c.rebuildRoute(nd)
	}
}

// markRoutesDirty invalidates every alive node's routing table (used after
// recoveries that may touch any replica table, like Migration's promotion,
// pruning and FT-invariant repair).
func (c *Cluster[V, A]) markRoutesDirty() {
	for _, n := range c.nodes {
		if n != nil && n.alive {
			n.routeDirty = true
		}
	}
}
