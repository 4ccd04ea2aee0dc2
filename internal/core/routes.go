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
// position (the pendingActive entry). For an always-active program commit
// never reads pendingActive and vcNotice never reads a notice's payload, so
// its rows list only the replica targets' nodes and pos is not built:
// countNotices needs no more to size the notices. Edge-cut builds no scatter
// route: an edge lives on its target's master node, so every out-target is a
// master and the out-list itself is the list.
type scatterRoute struct {
	start []int32
	node  []int16
	pos   []int32
	// notices counts, per node, the entries naming a master there: the most
	// activation notices one superstep can send that node.
	notices []int32
	// due is countNotices' per-node scratch.
	due []int32
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
	sr.due = sized(sr.due, c.cfg.NumNodes)
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
	sr.start, sr.node = sized(sr.start, n+1), sized(sr.node, total)
	if !c.always {
		sr.pos = sized(sr.pos, total)
	}
	k := 0
	for i := range n {
		sr.start[i] = int32(k)
		for _, w := range nd.out(i) {
			if we := &nd.hot[w]; !c.always || !we.isMaster() {
				sr.node[k] = we.masterNode
				if !c.always {
					sr.pos[k] = we.masterPos
				}
				k++
			}
		}
	}
	sr.start[n] = int32(k)
	nd.routeDirty = false
}

// routeReady rebuilds the scatter route, and reserves the notice and round
// buffers the route and the replica tables size, if load or a recovery
// invalidated it. vcGather, the first phase of every vertex-cut superstep
// to stage gather records, calls it in its per-node prologue, before any
// record of the superstep that needs the reservation is staged and while no
// receiver hands a buffer back to nd's wire slots, so each node's rebuild
// runs on the goroutine that owns it.
func (c *Cluster[V, A]) routeReady(nd *node[V, A]) {
	if nd.routeDirty {
		c.rebuildScatter(nd)
		c.reserveNotices(nd)
		c.reserveSends(nd)
	}
}

// reserveNotices gives nd's notice buffer to each node room for the most
// notices the scatter route can send it in one superstep, 4 bytes each, so
// the buffer goes around its wire slot at its final size from the first
// superstep instead of doubling through it.
func (c *Cluster[V, A]) reserveNotices(nd *node[V, A]) {
	for dst, n := range nd.scatter.notices {
		if n > 0 {
			c.reserve(nd, dst, slotNotice, 4*int(n))
		}
	}
}

// reserveSends does the same for nd's round buffer to each node, which
// carries its R1, gather and sync records in turn: it is sized for the
// larger of the gather round (a record per replica slot with local in-edges
// whose master lives there) and the sync round (a record per replica table
// row naming that node; an R1 record is smaller). A round whose codec's size
// depends on the value is left to grow.
func (c *Cluster[V, A]) reserveSends(nd *node[V, A]) {
	vs, vfix := fixedSize(c.vc)
	as, afix := fixedSize(c.ac)
	if !vfix && !afix {
		return
	}
	sync, gather := make([]int, c.cfg.NumNodes), make([]int, c.cfg.NumNodes)
	tb := &nd.tables
	for i := range nd.hot {
		switch e := &nd.hot[i]; {
		case e.isMaster() && vfix:
			h := nd.masters[nd.ref[i].master]
			for k := h.off; k < h.off+int32(h.rows); k++ {
				sync[tb.nodes[k]] += 5 + vs
			}
		case !e.isMaster() && afix && nd.inLen(i) > 0:
			gather[e.masterNode] += 4 + as
		}
	}
	for dst := range sync {
		if need := max(sync[dst], gather[dst]); need > 0 {
			c.reserve(nd, dst, slotSend, need)
		}
	}
}

// reserve makes nd's class buffer to dst hold at least need bytes, handing
// a shorter slot buffer back to the pool.
func (c *Cluster[V, A]) reserve(nd *node[V, A], dst, class, need int) {
	buf := c.wireBuf(nd, dst, class)
	if cap(buf) < need {
		c.pool.Put(buf)
		buf = make([]byte, 0, need)
	}
	nd.bufs(class)[dst] = buf
}

// countNotices stages an always-active program's activation notices for the
// superstep by length alone: 4 zero bytes for each route entry of a
// scattering slot, the bytes a per-entry encode would have staged, without
// encoding the positions nobody reads. It runs once every slot's
// pendingScatter is final, at the end of syncRecv: each destination's count
// is the route's total for it less the entries of the slots that do not
// scatter, so a program whose every slot scatters pays one pass over hot.
func (c *Cluster[V, A]) countNotices(nd *node[V, A]) {
	rt := &nd.scatter
	due := rt.due
	copy(due, rt.notices)
	for i := range nd.hot {
		if !nd.hot[i].pendingScatter {
			for _, mn := range rt.node[rt.start[i]:rt.start[i+1]] {
				due[mn]--
			}
		}
	}
	notices := int64(0)
	for dst, n := range due {
		if n > 0 {
			nd.noticeBuf[dst] = append(c.wireBuf(nd, dst, slotNotice), make([]byte, 4*n)...)
			notices += int64(n)
		}
	}
	nd.met.ActivationMsgs += notices
	nd.met.ActivationBytes += 4 * notices
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
