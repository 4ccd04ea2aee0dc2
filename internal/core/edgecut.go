package core

import (
	"encoding/binary"

	"imitator/internal/costmodel"
	"imitator/internal/netsim"
)

// bindEdgeCutPhases builds the edge-cut compute phase and the R3 sync
// phases both engines share (see superstep).
func (c *Cluster[V, A]) bindEdgeCutPhases() {
	c.fns.ecCompute = func(nd *node[V, A]) {
		iter := c.curIter
		var busy busySpan
		for _, b := range c.chunks(nd, len(nd.hot)) {
			edges, applies := 0, 0
			for i := b[0]; i < b[1]; i++ {
				e := &nd.hot[i]
				if !e.isMaster() || !e.active {
					continue
				}
				acc, has, n := c.gather(nd, i)
				edges += n
				c.apply(nd, i, acc, has, iter)
				applies++
			}
			busy.add(float64(edges)*c.cfg.Cost.ComputePerEdge +
				float64(applies)*c.cfg.Cost.ComputePerVertex)
		}
		nd.phaseCost = c.charge(nd, busy)
	}
	c.fns.syncStage = func(nd *node[V, A]) {
		for i := range nd.hot {
			if e := &nd.hot[i]; e.isMaster() && e.hasPending {
				c.stageSyncRecords(nd, i)
			}
		}
	}
	c.fns.syncRecv = func(nd *node[V, A]) {
		msgs := c.net.Receive(nd.id)
		if c.flog != nil {
			c.flogCapture(nd, msgs)
		}
		for _, m := range msgs {
			if m.Kind == netsim.KindSync {
				c.applySync(nd, m.Payload)
			}
		}
		c.handBack(nd, msgs, slotSend)
		if c.vcut != nil && c.always {
			c.countNotices(nd) // every slot's pendingScatter is final here
		}
	}
}

// stageSyncRecords appends one sync record per replica of master entry i to
// the node's per-destination send buffers, honoring the selfish-vertex
// optimization and keeping the FT/normal message accounting the figures
// need. Destinations are the rows of i's replica table, walked in place in
// the table arena through its master handle; the mirror indexes are never
// read.
func (c *Cluster[V, A]) stageSyncRecords(nd *node[V, A], i int) {
	// The mirror's "full state" needs no extra bytes during normal sync:
	// the dynamic extension the paper describes (the activation/scatter
	// state) is the scatter flag already in every record, stamped with the
	// current superstep on receipt. The measurable FT overhead is the sync
	// records sent to FT-only replicas, which exist purely for recovery.
	e := &nd.hot[i]
	skipFT := c.selfishOptOn && e.isSelfish()
	h, tb := nd.masters[nd.ref[i].master], &nd.tables
	for k := h.off; k < h.off+int32(h.rows); k++ {
		ftOnly := tb.ftOnly[k]
		if ftOnly && skipFT {
			continue
		}
		rn := int(tb.nodes[k])
		buf := c.wireBuf(nd, rn, slotSend)
		before := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(tb.pos[k]))
		var flags byte
		if e.pendingScatter {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = c.vc.Append(buf, e.pendingValue)
		nd.sendBuf[rn] = buf
		size := int64(len(buf) - before)
		if ftOnly {
			nd.met.FTMsgs++
			nd.met.FTBytes += size
		} else {
			nd.met.SyncMsgs++
			nd.met.SyncBytes += size
		}
	}
}

// gather folds slot i's local in-edges with one Program.Gather call and
// returns the edge count with the fold; a slot without any has no fold.
func (c *Cluster[V, A]) gather(nd *node[V, A], i int) (acc A, has bool, edges int) {
	nbr, wt := nd.in(i)
	if len(nbr) == 0 {
		return acc, false, 0
	}
	return c.prog.Gather(nd.hot[i].id, InEdges[V]{hot: nd.hot, nbr: nbr, wt: wt}), true, len(nbr)
}

// apply runs Program.Apply on master slot i over its gathered accumulator,
// stages the new value and scatter flag for commit, and marks the slot's
// out-targets when it scatters.
func (c *Cluster[V, A]) apply(nd *node[V, A], i int, acc A, has bool, iter int) {
	e := &nd.hot[i]
	newV, scatter := c.prog.Apply(e.id, e.info(), e.value, acc, has, iter)
	e.pendingValue = newV
	e.hasPending = true
	e.pendingScatter = scatter
	if scatter && !c.always {
		c.scatterMark(nd, int32(i))
	}
}

// applySync decodes a batch of sync records into local slots, staging each
// value and scatter flag and activating the scattering replicas' local
// out-targets. A record cut short ends the batch, as a codec error does.
func (c *Cluster[V, A]) applySync(nd *node[V, A], buf []byte) {
	for len(buf) >= 5 {
		pos := int32(binary.LittleEndian.Uint32(buf))
		flags := buf[4]
		val, rest, err := c.vc.Read(buf[5:])
		if err != nil {
			return
		}
		buf = rest
		e := &nd.hot[pos]
		e.pendingValue = val
		e.hasPending = true
		e.pendingScatter = flags&1 != 0
		if e.pendingScatter && !c.always {
			c.scatterMark(nd, pos)
		}
	}
}

// scatterMark activates slot i's local out-targets for the next superstep:
// masters by their pendingActive flag, vertex-cut replicas via an
// activation notice to their master's node, both streamed from the node's
// precomputed scatter route in out-list order. Commit ORs a master's
// pendingActive with Program.AlwaysActive, so for an always-active program
// neither the flags nor the notices' content have a reader and its callers
// skip the mark; its notices are still wire traffic, which countNotices
// stages by length once the superstep's scatter flags are final.
func (c *Cluster[V, A]) scatterMark(nd *node[V, A], i int32) {
	if c.ec != nil {
		// An edge lives on its target's master node: all masters, no notices.
		for _, w := range nd.out(int(i)) {
			nd.hot[w].pendingActive = true
		}
		return
	}
	rt, self, notices := &nd.scatter, int16(nd.id), int64(0)
	for k := rt.start[i]; k < rt.start[i+1]; k++ {
		if rt.node[k] == self {
			nd.hot[rt.pos[k]].pendingActive = true
			continue
		}
		mn := int(rt.node[k])
		nd.noticeBuf[mn] = binary.LittleEndian.AppendUint32(c.wireBuf(nd, mn, slotNotice), uint32(rt.pos[k]))
		notices++
	}
	nd.met.ActivationMsgs += notices
	nd.met.ActivationBytes += 4 * notices
}

// advanceComputeSpan advances the simulated clock by the slowest node's
// compute cost and clears the scratch.
func (c *Cluster[V, A]) advanceComputeSpan() {
	var span costmodel.Span
	for _, n := range c.aliveNodes() {
		span.Observe(n.phaseCost)
		n.phaseCost = 0
	}
	c.clock.Advance(span.Max())
}
