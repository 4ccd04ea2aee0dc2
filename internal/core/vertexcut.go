package core

import "encoding/binary"

// gatherPartial is one node's partial accumulator for a vertex.
type gatherPartial[A any] struct {
	acc A
	has bool
}

// ensurePartials returns p resized to n cleared elements, reusing its
// backing array when capacity allows.
func ensurePartials[A any](p []gatherPartial[A], n int) []gatherPartial[A] {
	if cap(p) < n {
		return make([]gatherPartial[A], n)
	}
	p = p[:n]
	clear(p)
	return p
}

// bindVertexCutPhases builds the vertex-cut R1, gather, merge and R4
// notice phases (see superstep).
func (c *Cluster[V, A]) bindVertexCutPhases() {
	c.fns.vcR1Stage = func(nd *node[V, A]) {
		tb := &nd.tables
		for i := range nd.hot {
			e := &nd.hot[i]
			if !e.isMaster() || !e.active {
				continue
			}
			h := nd.masters[nd.ref[i].master]
			for k := h.off; k < h.off+int32(h.rows); k++ {
				if tb.ftOnly[k] {
					continue // FT replicas hold no edges: nothing to gather
				}
				rn := int(tb.nodes[k])
				nd.sendBuf[rn] = binary.LittleEndian.AppendUint32(c.wireBuf(nd, rn, slotSend), uint32(tb.pos[k]))
				nd.met.ActivationMsgs++
				nd.met.ActivationBytes += 4
			}
		}
	}
	c.fns.vcR1Recv = func(nd *node[V, A]) {
		for i := range nd.hot {
			if e := &nd.hot[i]; !e.isMaster() {
				e.active = false
			}
		}
		msgs := c.net.Receive(nd.id)
		for _, m := range msgs {
			buf := m.Payload
			for len(buf) >= 4 {
				pos := binary.LittleEndian.Uint32(buf)
				nd.hot[pos].active = true
				buf = buf[4:]
			}
		}
		c.handBack(nd, msgs, slotSend)
	}
	c.fns.vcGather = func(nd *node[V, A]) {
		c.routeReady(nd)
		nd.localPart = ensurePartials(nd.localPart, len(nd.hot))
		var busy busySpan
		for _, b := range c.chunks(nd, len(nd.hot)) {
			edges := 0
			for i := b[0]; i < b[1]; i++ {
				e := &nd.hot[i]
				if !e.active {
					continue
				}
				acc, has, n := c.gather(nd, i)
				edges += n
				if !has {
					continue
				}
				if e.isMaster() {
					nd.localPart[i] = gatherPartial[A]{acc: acc, has: true}
				} else {
					mn := int(e.masterNode)
					buf := c.wireBuf(nd, mn, slotSend)
					before := len(buf)
					buf = binary.LittleEndian.AppendUint32(buf, uint32(e.masterPos))
					buf = c.ac.Append(buf, acc)
					nd.sendBuf[mn] = buf
					nd.met.GatherMsgs++
					nd.met.GatherBytes += int64(len(buf) - before)
				}
			}
			busy.add(float64(edges) * c.cfg.Cost.ComputePerEdge)
		}
		nd.phaseCost = c.charge(nd, busy)
	}
	c.fns.vcMerge = func(nd *node[V, A]) {
		// Contributions merge in ascending sender-id order, with the
		// master's own local partial taking its node's slot, so
		// floating-point folds are deterministic.
		nd.mergedPart = ensurePartials(nd.mergedPart, len(nd.hot))
		msgs := c.net.Receive(nd.id)
		localMerged := false
		for _, m := range msgs {
			if !localMerged && m.From > nd.id {
				localMerged = true
				c.vcMergeLocal(nd)
			}
			c.vcMergePayload(nd, m.Payload)
		}
		if !localMerged {
			c.vcMergeLocal(nd)
		}
		c.handBack(nd, msgs, slotSend)

		// Apply over the merged partials.
		iter := c.curIter
		var busy busySpan
		for _, b := range c.chunks(nd, len(nd.hot)) {
			applies := 0
			for i := b[0]; i < b[1]; i++ {
				e := &nd.hot[i]
				if !e.isMaster() || !e.active {
					continue
				}
				c.apply(nd, i, nd.mergedPart[i].acc, nd.mergedPart[i].has, iter)
				applies++
			}
			busy.add(float64(applies) * c.cfg.Cost.ComputePerVertex)
		}
		nd.phaseCost = c.charge(nd, busy)
	}
	c.fns.vcNotice = func(nd *node[V, A]) {
		msgs := c.net.Receive(nd.id)
		for _, m := range msgs {
			// An always-active program's commit never reads pendingActive.
			for buf := m.Payload; len(buf) >= 4 && !c.always; buf = buf[4:] {
				nd.hot[binary.LittleEndian.Uint32(buf)].pendingActive = true
			}
		}
		c.handBack(nd, msgs, slotNotice)
	}
}

// vcMergePayload folds one gather message's (master position, accumulator)
// records into the merge scratch. A record cut short ends the message, as a
// codec error does.
func (c *Cluster[V, A]) vcMergePayload(nd *node[V, A], buf []byte) {
	for len(buf) >= 4 {
		pos := int32(binary.LittleEndian.Uint32(buf))
		acc, rest, err := c.ac.Read(buf[4:])
		if err != nil {
			return
		}
		buf = rest
		c.vcMergeAt(nd, pos, acc)
	}
}

// vcMergeAt folds one partial accumulator into the merge scratch.
func (c *Cluster[V, A]) vcMergeAt(nd *node[V, A], pos int32, acc A) {
	m := &nd.mergedPart[pos]
	if m.has {
		m.acc = c.prog.Merge(m.acc, acc)
	} else {
		m.acc, m.has = acc, true
	}
}

// vcMergeLocal folds the node's own local partials into the merge scratch.
func (c *Cluster[V, A]) vcMergeLocal(nd *node[V, A]) {
	for i := range nd.localPart {
		if nd.localPart[i].has {
			c.vcMergeAt(nd, int32(i), nd.localPart[i].acc)
		}
	}
}
