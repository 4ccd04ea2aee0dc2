package core

import (
	"encoding/binary"

	"imitator/internal/netsim"
)

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

// superstepVertexCut runs one PowerLyra-style GAS superstep:
//
//	R1  activation broadcast: masters tell replica hosts which vertices
//	    gather this superstep (skipped for always-active programs);
//	R2  gather: every node partial-gathers over its local in-edges and
//	    ships accumulators to masters;
//	    apply: masters merge partials (ascending node order) and apply;
//	R3  sync: masters broadcast new values + scatter flags to replicas,
//	    which stage them and mark local out-targets;
//	R4  activation notices: nodes forward scatter activations to the
//	    masters of the activated vertices.
//
// All phases run through pre-bound functions so the steady-state loop
// allocates nothing; the gather scratch (localPart/mergedPart) is
// retained on the node and cleared per superstep.
func (c *Cluster[V, A]) superstepVertexCut(iter int) error {
	c.curIter = iter

	// R1: activation broadcast.
	if !c.always {
		c.runPhase(c.fns.vcR1Stage)
		c.flushSendRound(netsim.KindActivation)
		c.runPhase(c.fns.vcR1Recv)
	}

	// R2 gather: local partials; replicas ship them to masters.
	c.runPhase(c.fns.vcGather)
	c.advanceComputeSpan()
	c.flushSendRound(netsim.KindGather)

	// Merge + apply on masters.
	c.runPhase(c.fns.vcMerge)
	c.advanceComputeSpan()

	// R3 sync: masters broadcast new values + scatter bits.
	c.runPhase(c.fns.syncStage)
	c.flushSendRound(netsim.KindSync)
	c.runPhase(c.fns.syncRecv)

	// R4 activation notices to the masters of activated vertices.
	c.flushNoticeRound()
	c.runPhase(c.fns.vcNotice)
	return nil
}

// bindVertexCutPhases builds the cluster-level vertex-cut phase functions.
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
		c.routeReady(nd) // apply scatters
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
				newV, scatter := c.prog.Apply(e.id, e.info(), e.value, nd.mergedPart[i].acc, nd.mergedPart[i].has, iter)
				e.pendingValue = newV
				e.hasPending = true
				e.pendingScatter = scatter
				applies++
				if scatter {
					c.scatterMark(nd, int32(i))
				}
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
