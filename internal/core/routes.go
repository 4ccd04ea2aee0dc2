package core

// A master's sync destinations need no route: they are the rows of its own
// replica table in the node's table arena, which stageSyncRecords and the
// vertex-cut R1 stage walk in place. The one derived route is vertex-cut's
// scatter route below.

// scatterRoute is a vertex-cut node's precomputed scatter table, a CSR over
// slots. Row i lists, in slot i's out-list order, the (masterNode, masterPos)
// of slot i's out-targets, so scatterMark streams the row without reading the
// targets' hot slots: a replica target's record is its activation notice
// (destination and payload), a master target's names this node and its own
// position (the pendingActive entry). Master targets are listed only for
// programs that are not always-active: commit never reads pendingActive
// otherwise. Edge-cut builds no scatter route: an edge lives on its target's
// master node, so every out-target is a master and the out-list itself is the
// list.
type scatterRoute struct {
	start []int32
	node  []int16
	pos   []int32
	// notices counts, per node, the entries naming a master there: the most
	// activation notices one superstep can send that node.
	notices []int32
}

// sized returns s with length n, reallocating exactly — no append doubling —
// when its capacity falls short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rebuildScatter derives nd.scatter from the out-lists and the targets' hot
// slots and clears routeDirty: a count pass sizes every array and counts
// each node's notices, a second pass fills them.
func (c *Cluster[V, A]) rebuildScatter(nd *node[V, A]) {
	sr := &nd.scatter
	sr.notices = sized(sr.notices, c.cfg.NumNodes)
	clear(sr.notices)
	n, total := len(nd.hot), 0
	for _, w := range nd.outNbr {
		if we := &nd.hot[w]; !c.always || !we.isMaster() {
			total++
			if int(we.masterNode) != nd.id {
				sr.notices[we.masterNode]++
			}
		}
	}
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
	nd.routeDirty = false
}

// routeReady rebuilds the scatter route, and reserves the notice buffers it
// sizes, if load or a recovery invalidated it. The two phases that scatter
// through it, syncRecv (applySync) and vcMerge (vcApply), call it in their
// per-node prologue, before any notice of the superstep is staged, so each
// node's rebuild runs on the goroutine that owns it.
func (c *Cluster[V, A]) routeReady(nd *node[V, A]) {
	if nd.routeDirty {
		c.rebuildScatter(nd)
		c.reserveNotices(nd)
	}
}

// reserveNotices gives nd's notice buffer to each node room for the most
// notices the scatter route can send it in one superstep, 4 bytes each, so
// the buffer goes around its wire slot at its final size from the first
// superstep instead of doubling through it. A shorter slot buffer goes back
// to the pool.
func (c *Cluster[V, A]) reserveNotices(nd *node[V, A]) {
	for dst, n := range nd.scatter.notices {
		if n == 0 {
			continue
		}
		buf := c.wireBuf(nd, dst, slotNotice)
		if need := 4 * int(n); cap(buf) < need {
			c.pool.Put(buf)
			buf = sized[byte](nil, need)[:0]
		}
		nd.noticeBuf[dst] = buf
	}
}

// markRoutesDirty invalidates every alive vertex-cut node's scatter route
// (used by recoveries that may move masters, add slots or add out-edges on
// any node, like Migration's promotion, replica creation and edge
// attachment). Edge-cut has no route to invalidate.
func (c *Cluster[V, A]) markRoutesDirty() {
	for _, n := range c.nodes {
		if n != nil && n.alive {
			n.routeDirty = c.vcut != nil
		}
	}
}
