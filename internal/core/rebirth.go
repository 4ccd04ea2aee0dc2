package core

import (
	"fmt"
	"slices"

	"imitator/internal/costmodel"
	"imitator/internal/graph"
	"imitator/internal/netsim"
)

// rebirthNewbie builds the empty standby node that assumes crashed slot f's
// logical id, its vertex arrays sized from the coordination service's shared
// state (§5.1).
func (c *Cluster[V, A]) rebirthNewbie(_ *recoveryPass[V, A], f int) (*node[V, A], error) {
	arrayLen, ok := c.coord.Get(fmt.Sprintf("arraylen/%d", f))
	if !ok {
		return nil, fmt.Errorf("%w: unknown array length for node %d", ErrUnrecoverable, f)
	}
	nd := &node[V, A]{
		id:    f,
		alive: true,
		met:   &c.met.Nodes[f],
		hot:   make([]hot[V], arrayLen),
		csr:   csr{inStart: make([]int32, arrayLen+1), outStart: make([]int32, arrayLen+1)},
		ref:   make([]slabRef, arrayLen),
		index: newIndex(c.g.NumVertices()),
	}
	for i := range nd.hot {
		nd.hot[i].masterNode = noNode // "not yet placed" sentinel
	}
	if c.g.Weighted() {
		nd.edges.wt = weights{} // as load's: a weighted graph's edge arena stores weights
	}
	c.initNodeScratch(nd)
	return nd, nil
}

// recoverRebirth reconstructs each crashed node's full state on the newbie
// that joined under its id (§5.1). Three phases: Reloading (survivors push
// recovery records derived from their masters and mirrors), Reconstruction
// (records land at their recorded array positions, then local topology is
// re-linked), and Replay (activation states are re-derived from committed
// scatter flags).
func (c *Cluster[V, A]) recoverRebirth(p *recoveryPass[V, A]) error {
	failed, failedSet, rec := p.failed, p.failedSet, &p.rec
	p.hook() // newbies joined

	// Reloading: survivors scan their masters for replicas lost on failed
	// nodes, and their mirrors for masters lost on failed nodes (the lowest
	// surviving mirror recovers each master).
	c.runPhase(func(nd *node[V, A]) {
		if failedSet[nd.id] {
			return // newbies have nothing to send
		}
		c.stageExact(nd.sendBuf, nd.met, func(s *recSink) {
			for i := range nd.hot {
				e := &nd.hot[i]
				// A master recovers its lost replicas from its own
				// table. With multiple simultaneous failures, a lost
				// master's replicas on *other* failed nodes have no
				// master to recover them; the mirror recovering that
				// master does it from its full-state copy (§5.3.1).
				var table replicaTable
				if e.isMaster() {
					table = nd.replicas(int32(i))
				} else {
					if !e.isMirror() || !failedSet[int(e.masterNode)] {
						continue
					}
					m := nd.mirror(int32(i))
					if table = nd.tables.at(m.table); c.lowestSurvivingMirror(&table, failedSet) != nd.id {
						continue
					}
					c.stageMasterRecovery(s, nd, e, m, int(e.masterNode))
				}
				for ri, rn := range table.nodes {
					if failedSet[int(rn)] {
						c.stageReplicaRecovery(nd, s, i, &table, ri, int(rn))
					}
				}
			}
		})
	})
	c.flushSendRound(netsim.KindRecovery)

	// Vertex-cut: newbies reload their slots' edge-ckpt files in parallel,
	// overlapping with the vertex reloading above (§5.1.1).
	edgeData := make([][][]byte, c.cfg.NumNodes)
	if c.vcut != nil {
		var span costmodel.Span
		for _, f := range failed {
			nd := c.nodes[f]
			if !nd.alive {
				continue // newbie killed again mid-recovery; restart handles it
			}
			var nodeCost float64
			for _, path := range c.dfs.List(fmt.Sprintf("edgeckpt/%d/", f)) {
				data, cost, err := c.dfs.Read(f, path)
				if err != nil {
					return err
				}
				nd.met.DFSReadBytes += int64(len(data))
				nodeCost += cost
				edgeData[f] = append(edgeData[f], data)
			}
			span.Observe(nodeCost)
		}
		c.clock.Advance(span.Max())
	}
	if err := p.barrier(&rec.ReloadSeconds); err != nil {
		return err
	}
	p.hook() // records reloaded

	// Reconstruction: records land at their positions; then in-edge lists
	// are resolved by id and out-lists rebuilt by reversal. Every alive
	// node collects the round; survivors receive nothing, and collecting
	// leaves no mailbox holding a stale round.
	received := make([][]netsim.Message, c.cfg.NumNodes)
	c.runPhase(func(nd *node[V, A]) {
		received[nd.id] = c.net.Receive(nd.id)
	})
	var reconSpan costmodel.Span
	for _, f := range failed {
		nd := c.nodes[f]
		if !nd.alive {
			// Killed again while recovery was in flight (chaos or test
			// hook): its round was dropped, so nothing can be placed. The
			// barrier below announces the new failure and the recovery
			// restarts with the union.
			continue
		}
		recs, err := decodeRecords(received[f], c.vc, len(nd.hot))
		if err != nil {
			return fmt.Errorf("core: rebirth decode on node %d: %w", f, err)
		}
		// Position-addressed placement is contention-free (§5.1.2): every
		// record targets a distinct slot, so it is charged as the simulated
		// workers' chunks placing in parallel. The records' role flags first size the role slabs, and their tables
		// and mirror edge lists land in the arenas, so placement writes only
		// its own slot's entries; the id index rebuilds afterwards. at[pos]
		// is the last record placed at pos, for the walks in position order
		// below.
		at := make([]int32, len(nd.hot))
		for k := range recs {
			nd.hot[recs[k].pos].flags = recs[k].slot.flags
			at[recs[k].pos] = int32(k)
		}
		nd.allocSlabs()
		nd.landRecords(recs)
		var busy busySpan
		for _, b := range c.chunks(nd, len(recs)) {
			for k := b[0]; k < b[1]; k++ {
				c.placeRecovered(nd, &recs[k])
			}
			busy.add(float64(b[1]-b[0]) * c.cfg.Cost.ReconstructPerVertex)
		}
		placeCost := c.charge(nd, busy)
		for i := range nd.hot {
			nd.index[nd.hot[i].id] = int32(i)
		}
		rec.RecoveredVertices += len(recs)
		// Every slot must have been recovered.
		for i := range nd.hot {
			if nd.hot[i].masterNode == noNode {
				return fmt.Errorf("%w: node %d slot %d not recovered (lost beyond K?)",
					ErrTooManyFailures, f, i)
			}
		}
		// The local edges attach in one batch, resolved to local positions:
		// under edge-cut the master records' raw in-edge lists in ascending
		// position order, under vertex-cut the edge-ckpt files' edges in file
		// order. Only master records carry local in-edges; a recovered
		// mirror's edge list is part of its full state (in the edge arena),
		// not this node's topology.
		edges := 0
		for _, k := range at {
			if r := &recs[k]; r.slot.isMaster() && r.edges != nil {
				edges += len(r.edges.src)
			}
		}
		for _, data := range edgeData[f] {
			edges += len(data) / 16
		}
		batch := newEdgeBatch(edges)
		for pos, k := range at {
			if r := &recs[k]; r.slot.isMaster() && r.edges != nil {
				if err := nd.batchInEdges(&batch, int32(pos), r.edges); err != nil {
					return err
				}
			}
		}
		for _, data := range edgeData[f] {
			if err := eachEdgeCkpt(data, func(src, dst graph.VertexID, wt float64) error {
				return nd.batchEdge(&batch, src, dst, wt)
			}); err != nil {
				return err
			}
		}
		nd.appendEdges(&batch)
		rec.RecoveredEdges += edges
		reconSpan.Observe(placeCost + float64(edges)*c.cfg.Cost.ComputePerEdge)
	}
	for _, msgs := range received {
		c.recycleMsgs(msgs)
	}
	c.clock.Advance(reconSpan.Max())
	if err := p.barrier(&rec.ReconstructSeconds); err != nil {
		return err
	}
	p.hook() // state reconstructed

	// Replay: re-derive active flags for the recovered masters (§5.1.3).
	onReborn := func(masterNode int16, _ int32) bool { return failedSet[int(masterNode)] }
	if err := c.replayActivation(p.iter, onReborn); err != nil {
		return err
	}
	for _, f := range failed {
		c.recomputeSelfish(c.nodes[f], onReborn, p.iter)
	}
	return p.barrier(&rec.ReplaySeconds)
}

// stageReplicaRecovery emits the record recreating the replica that row ri
// of table placed on failed node rn. table is slot i's view of its vertex's
// replica table: a master's own, or a recovering mirror's copy. If the lost
// replica was a mirror, the record carries the full state (table and, for
// edge-cut, the master's in-edges) so the mirror can be recreated intact.
func (c *Cluster[V, A]) stageReplicaRecovery(nd *node[V, A], s *recSink, i int, table *replicaTable, ri, rn int) {
	r := nd.hot[i].carried()
	r.flags &= flagSelfish
	if table.ftOnly[ri] {
		r.flags |= flagFTOnly
	}
	if !slices.Contains(table.mirrorOf, int16(ri)) {
		c.putRecord(s, rn, table.pos[ri], &r, nil, nil)
		return
	}
	r.flags |= flagMirror
	if nd.hot[i].isMaster() {
		c.putMirrorRecord(s, nd, int32(i), rn, table.pos[ri], r.flags)
		return
	}
	var edges *rawEdges
	if c.ec != nil {
		ed := nd.edges.at(nd.mirror(int32(i)).edges)
		edges = &ed
	}
	c.putRecord(s, rn, table.pos[ri], &r, table, edges)
}

// putRecord stages for dst the record that recreates slot r at pos, with
// the table and edge list it keeps (nil when it keeps none).
func (c *Cluster[V, A]) putRecord(s *recSink, dst int, pos int32, r *recSlot[V], table *replicaTable, edges *rawEdges) {
	s.put(dst, recoveryRecordSize(c.vc, r.value, table, edges), func(buf []byte) []byte {
		return encodeRecoveryRecord(buf, c.vc, pos, r, table, edges)
	})
}

// putMirrorRecord stages for dst the record that makes the replica at rpos
// a mirror of master slot pos: the master's state, its replica table and,
// for edge-cut, its in-edges encoded straight from its topology.
func (c *Cluster[V, A]) putMirrorRecord(s *recSink, nd *node[V, A], pos int32, dst int, rpos int32, flags entryFlags) {
	r, table := nd.hot[pos].carried(), nd.replicas(pos)
	r.flags = flags
	size := recoveryRecordSize(c.vc, r.value, &table, nil)
	if c.ec != nil {
		size += edgeListSize(nd.inLen(int(pos)))
	}
	s.put(dst, size, func(buf []byte) []byte {
		buf = encodeRecordHead(buf, c.vc, rpos, &r, &table)
		if c.ec == nil {
			return putU8(buf, 0)
		}
		return nd.appendTopoEdges(buf, pos)
	})
}

// stageMasterRecovery emits the record recreating the master that lived on
// the failed node, from the full state m of this surviving mirror on nd.
func (c *Cluster[V, A]) stageMasterRecovery(s *recSink, nd *node[V, A], e *hot[V], m *mirrorState, dst int) {
	r := e.carried()
	r.flags = flagMaster | e.flags&flagSelfish
	table := nd.tables.at(m.table)
	var edges *rawEdges
	if c.ec != nil {
		ed := nd.edges.at(m.edges)
		edges = &ed
	}
	c.putRecord(s, dst, e.masterPos, &r, &table, edges)
}

// appendTopoEdges appends master slot i's in-edge list with its presence
// flag, in rawEdges' encoding, straight from the slot's local topology: each
// source's global id and the edge weight (and the unread master slot).
func (n *node[V, A]) appendTopoEdges(buf []byte, i int32) []byte {
	nbr, wt := n.in(int(i))
	buf = putU32(putU8(buf, 1), uint32(len(nbr)))
	for k, sp := range nbr {
		buf = appendRawEdge(buf, n.hot[sp].id, wt.at(k))
	}
	return buf
}

// placeRecovered materializes one recovery record at its position in the
// newbie's tables. The caller stamps every record's role flags, sizes the
// role slabs and lands the records' tables and edge lists before, and
// rebuilds the id index after all placements land.
func (c *Cluster[V, A]) placeRecovered(nd *node[V, A], rec *recoveryRecord[V]) {
	s := rec.slot.slot()
	// Masters: replay re-derives activity. Replicas: the next superstep's
	// activation broadcast refreshes them, except under always-active
	// programs, which never broadcast.
	s.active = c.always
	if s.isMaster() {
		s.masterNode, s.masterPos = int16(nd.id), rec.pos
	}
	nd.hot[rec.pos] = s
}

// lowestSurvivingMirror returns the node hosting the lowest-ranked
// surviving mirror recorded in a mirror's copy t of the replica table, or
// -1. Mirrors need no communication to elect the recoverer (§5.3.1).
func (c *Cluster[V, A]) lowestSurvivingMirror(t *replicaTable, failedSet []bool) int {
	for _, idx := range t.mirrorOf {
		n := int(t.nodes[idx])
		if !failedSet[n] && c.nodes[n] != nil && c.nodes[n].alive {
			return n
		}
	}
	return -1
}
