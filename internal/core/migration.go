package core

import (
	"fmt"
	"slices"

	"imitator/internal/costmodel"
	"imitator/internal/graph"
)

// recoverMigration scatters the crashed nodes' workload over the survivors
// (§5.2): surviving mirrors are promoted to masters, surviving replicas
// learn the new master locations, missing neighbor replicas are created
// cooperatively, vertex-cut edges are reloaded from edge-ckpt files, the
// fault-tolerance invariants (K replicas, K mirrors) are re-established,
// and finally the activation states of the promoted masters are replayed.
func (c *Cluster[V, A]) recoverMigration(p *recoveryPass[V, A]) error {
	failed, failedSet, rec, iter := p.failed, p.failedSet, &p.rec, p.iter

	// --- Phase 1: promotion (Reloading §5.2.1). Each surviving node scans
	// its mirrors; the lowest surviving mirror of each lost master promotes
	// itself. Nodes scan in parallel, each listing its promotions in
	// position order; promotions apply deterministically.
	promoLists := make([][]int32, c.cfg.NumNodes)
	c.runPhase(func(nd *node[V, A]) {
		for i := range nd.hot {
			e := &nd.hot[i]
			if !e.isMirror() || !failedSet[int(e.masterNode)] {
				continue
			}
			if mt := nd.tables.at(nd.mirror(int32(i)).table); c.lowestSurvivingMirror(&mt, failedSet) == nd.id {
				promoLists[nd.id] = append(promoLists[nd.id], int32(i))
			}
		}
	})
	// The work a pass does is slot state (hot.flags), so an attempt that a
	// further failure interrupts leaves it where the restart finds it:
	// flagStale marks masters whose mirrors hold an outdated table, which FT
	// repair refreshes; flagPromoted the masters promoted in this incident,
	// whose move notices, edges and activation replay may still be pending.
	// The walks below cover the nodes alive now; a node killed later in the
	// pass is still walked by FT repair.
	started := slices.Clone(c.aliveNodes())
	// A restart is an attempt that finds a promotion, on any node: some
	// invariants (mirror tables mirroring the master's, every replica known
	// to its master) may then be broken and need the reconciliation round
	// below.
	restart := slices.ContainsFunc(c.nodes, func(nd *node[V, A]) bool {
		for range nd.flagged(flagPromoted) {
			return true
		}
		return false
	})
	survives := func(host int16) bool { return !failedSet[host] }
	// Surviving masters drop lost replicas from their tables, in place, and
	// those promoted by an interrupted attempt are re-checked against the
	// enlarged failed set. The mirrors this attempt promotes below are not
	// masters yet; their tables are built against the failed set as they are
	// promoted.
	for _, nd := range started {
		for i := range nd.hot {
			if e := &nd.hot[i]; e.isMaster() {
				nd.retainReplicas(int32(i), survives)
				if e.flags&flagPromoted != 0 {
					e.flags |= flagStale
				}
			}
		}
	}
	for n, list := range promoLists {
		if len(list) == 0 {
			continue
		}
		nd := c.nodes[n]
		nd.masters = slices.Grow(nd.masters, len(list))
		for _, pos := range list {
			e := &nd.hot[pos]
			e.flags |= flagMaster | flagPromoted | flagStale
			e.flags &^= flagMirror | flagFTOnly
			e.masterNode = int16(nd.id)
			e.masterPos = pos
			// The mirror's copy of the replica table, less failed hosts and
			// this node itself, becomes the new master's table in place; its
			// mirrors are re-selected by FT repair.
			nd.promoteTable(pos, func(host int16) bool { return survives(host) && int(host) != nd.id })
			// An edge-cut mirror's in-edges stay until Phase 5 attaches
			// them; a vertex-cut mirror holds none, so nothing is left.
			if c.vcut != nil {
				nd.dropMirror(pos)
			}
			c.masterLoc[e.id] = int16(nd.id)
			rec.RecoveredVertices++
		}
	}
	// Unrecoverable check: every vertex must have a live master now.
	for v, mn := range c.masterLoc {
		if failedSet[int(mn)] {
			return fmt.Errorf("%w: vertex %d lost master and all mirrors", ErrTooManyFailures, v)
		}
	}
	p.hook() // mirrors promoted

	// --- Phase 2: move notices. Promoted masters tell their surviving
	// replicas where the master now lives.
	c.runPhase(func(nd *node[V, A]) {
		c.stageExact(nd.sendBuf, nd.met, func(s *recSink) {
			for pos := range nd.flagged(flagPromoted) {
				rt := nd.replicas(pos)
				for ri, host := range rt.nodes {
					rpos := rt.pos[ri]
					s.put(int(host), 10, func(buf []byte) []byte {
						buf = putI32(buf, rpos)
						buf = putI16(buf, int16(nd.id))
						return putI32(buf, pos)
					})
				}
			}
		})
	})
	if err := c.exchange(false, (*node[V, A]).applyMoveNotice); err != nil {
		return err
	}
	// Reconciliation (restart attempts only). A replica whose master died
	// mid-incident can be missing from the re-promoted master's adopted
	// table: it registered with the old master after the mirror copies were
	// last refreshed, so no move notice reaches it. Such orphans still point
	// at a failed master here; they look up the promoted master through the
	// membership map and register themselves, and the master replies with
	// its position (deduplicating replicas it already knows). A first
	// attempt has no orphans — mirror tables are authoritative — so the
	// extra rounds are empty and cost nothing.
	if restart {
		c.runPhase(func(nd *node[V, A]) {
			s := c.stageFill(nd.sendBuf, nd.met)
			for i := range nd.hot {
				e := &nd.hot[i]
				if e.isMaster() || !failedSet[int(e.masterNode)] {
					continue
				}
				mn := int(c.masterLoc[e.id])
				if mn == nd.id || failedSet[mn] {
					continue
				}
				// Stale mirror state is dropped; the new master re-selects
				// its mirrors during invariant repair.
				e.flags &^= flagMirror
				nd.dropMirror(int32(i))
				e.masterNode = int16(mn)
				vid, rpos, ft := e.id, int32(i), e.isFTOnly()
				s.put(mn, 9, func(buf []byte) []byte {
					buf = putU32(buf, uint32(vid))
					buf = putI32(buf, rpos)
					return putBool(buf, ft)
				})
			}
		})
		if err := c.exchange(false, func(nd *node[V, A], from int, r *reader) {
			vid, rpos, ft := graph.VertexID(r.u32()), r.i32(), r.bool()
			if r.err != nil {
				return
			}
			mp, ok := nd.pos(vid)
			if !ok {
				return
			}
			rt := nd.replicas(mp)
			known := false
			for idx, host := range rt.nodes {
				if int(host) == from && rt.pos[idx] == rpos {
					known = true
					break
				}
			}
			if !known {
				nd.addRow(mp, int16(from), rpos, ft)
			}
			c.stageFill(nd.noticeBuf, nd.met).put(from, 8, func(buf []byte) []byte {
				buf = putI32(buf, rpos)
				return putI32(buf, mp)
			})
		}); err != nil {
			return err
		}
		if err := c.exchange(true, (*node[V, A]).applyMasterReply); err != nil {
			return err
		}
	}
	if err := p.barrier(&rec.ReloadSeconds); err != nil {
		return err
	}
	p.hook() // replicas moved to the new masters

	// --- Phase 3: gather migrated edges and the vertex ids each node now
	// needs locally.
	type migEdge struct {
		src, dst graph.VertexID
		wt       float64
	}
	migEdges := make([][]migEdge, c.cfg.NumNodes)
	// readPaths[n] lists the edge-ckpt files node n read this attempt; n
	// deletes them only once it attaches their edges, so a restart re-reads
	// exactly the files whose reader died in between.
	readPaths := make([][]string, c.cfg.NumNodes)
	needs := make([][]graph.VertexID, c.cfg.NumNodes)
	if c.vcut != nil {
		// Each survivor reads its own file of every failed node; files
		// addressed to other failed nodes are reassigned round-robin.
		alive := c.aliveNodes()
		if len(alive) == 0 {
			// The last survivors died after the moves: nobody can read the
			// files, and the barrier reports the job lost.
			_, err := c.barrier()
			return err
		}
		orphanIdx := 0
		var span costmodel.Span
		for _, f := range failed {
			for _, path := range c.dfs.List(fmt.Sprintf("edgeckpt/%d/", f)) {
				var owner, target int
				if _, err := fmt.Sscanf(path, "edgeckpt/%d/%d", &owner, &target); err != nil {
					return fmt.Errorf("core: bad edge-ckpt path %q: %w", path, err)
				}
				// Files addressed to a dead node (this failure or any
				// earlier one) are reassigned round-robin over survivors.
				readerNode := target
				if failedSet[target] || c.nodes[target] == nil || !c.nodes[target].alive {
					readerNode = alive[orphanIdx%len(alive)].id
					orphanIdx++
				}
				data, cost, err := c.dfs.Read(readerNode, path)
				if err != nil {
					return err
				}
				c.met.Nodes[readerNode].DFSReadBytes += int64(len(data))
				span.Observe(cost)
				if err := eachEdgeCkpt(data, func(src, dst graph.VertexID, wt float64) error {
					migEdges[readerNode] = append(migEdges[readerNode], migEdge{src, dst, wt})
					return nil
				}); err != nil {
					return err
				}
				readPaths[readerNode] = append(readPaths[readerNode], path)
			}
		}
		c.clock.Advance(span.Max())
		for n, edges := range migEdges {
			nd := c.nodes[n]
			if nd == nil || !nd.alive {
				continue
			}
			for _, e := range edges {
				if _, ok := nd.pos(e.src); !ok {
					needs[n] = append(needs[n], e.src)
				}
				if _, ok := nd.pos(e.dst); !ok {
					needs[n] = append(needs[n], e.dst)
				}
			}
		}
	} else {
		// Edge-cut: promoted masters carry their in-edge lists; sources
		// missing locally need replicas (paper Fig 6's "Replica 6").
		// (Promotions of an interrupted attempt that already attached
		// their edges have no mirror state left and contribute nothing.)
		for _, nd := range c.aliveNodes() {
			for pos := range nd.flagged(flagPromoted) {
				m := nd.mirror(pos)
				if m == nil {
					continue
				}
				for _, src := range nd.edges.at(m.edges).src {
					if _, ok := nd.pos(src); !ok {
						needs[nd.id] = append(needs[nd.id], src)
					}
				}
			}
		}
	}
	p.hook() // migrated edges gathered

	// --- Phase 4: cooperative replica creation: request -> reply ->
	// register (three rounds).
	c.runPhase(func(nd *node[V, A]) {
		slices.Sort(needs[nd.id])
		ids := slices.Compact(needs[nd.id])
		c.stageExact(nd.sendBuf, nd.met, func(s *recSink) {
			for _, id := range ids {
				s.put(int(c.masterLoc[id]), 4, func(buf []byte) []byte {
					return putU32(buf, uint32(id))
				})
			}
		})
	})
	// Masters answer in request order, once the whole round is in.
	requests := make([][]replicaRequest, c.cfg.NumNodes)
	if err := c.exchange(false, func(nd *node[V, A], from int, r *reader) {
		id := graph.VertexID(r.u32())
		if r.err != nil {
			return
		}
		if pos, ok := nd.pos(id); ok {
			requests[nd.id] = append(requests[nd.id], replicaRequest{pos, from})
		}
	}); err != nil {
		return err
	}
	c.runPhase(func(nd *node[V, A]) {
		c.stageExact(nd.sendBuf, nd.met, func(s *recSink) {
			for _, q := range requests[nd.id] {
				c.stageReplicaOf(s, nd, q.pos, q.from, 0)
			}
		})
	})
	created, err := c.createReplicas(false, true)
	if err != nil {
		return err
	}
	rec.RecoveredVertices += created
	if err := p.barrier(nil); err != nil {
		return err
	}
	p.hook() // missing replicas created

	// --- Phase 5: attach migrated edges to local topology.
	var reconSpan costmodel.Span
	for _, nd := range c.aliveNodes() {
		var batch edgeBatch
		if c.vcut != nil {
			batch = newEdgeBatch(len(migEdges[nd.id]))
			for _, me := range migEdges[nd.id] {
				if err := nd.batchEdge(&batch, me.src, me.dst, me.wt); err != nil {
					return err
				}
			}
			// Persist the migrated edges into this node's own edge-ckpt
			// files so a future failure can still recover them.
			bufs := make([][]byte, c.cfg.NumNodes)
			for _, me := range migEdges[nd.id] {
				t := c.edgeCkptTarget(me.dst, nd.id)
				bufs[t] = appendEdgeCkpt(bufs[t], me.src, me.dst, me.wt)
			}
			for t, buf := range bufs {
				if len(buf) > 0 {
					cost := c.dfs.Append(nd.id, edgeCkptPath(nd.id, t), buf)
					nd.met.DFSWriteBytes += int64(len(buf))
					reconSpan.Observe(cost)
				}
			}
			// Attached and re-persisted: a restart must not read these
			// files again.
			for _, p := range readPaths[nd.id] {
				c.dfs.Delete(p)
			}
		} else {
			// The promoted masters' in-edges leave their mirror state and
			// attach in ascending position order.
			n := 0
			for pos := range nd.flagged(flagPromoted) {
				if m := nd.mirror(pos); m != nil { // nil: attached by an interrupted earlier attempt
					n += int(m.edges.n)
				}
			}
			batch = newEdgeBatch(n)
			for pos := range nd.flagged(flagPromoted) {
				if m := nd.mirror(pos); m != nil {
					ed := nd.edges.at(m.edges)
					if err := nd.batchInEdges(&batch, pos, &ed); err != nil {
						return err
					}
					nd.dropMirror(pos)
				}
			}
		}
		nd.appendEdges(&batch)
		created := len(batch.src)
		rec.RecoveredEdges += created
		reconSpan.Observe(float64(created) * c.cfg.Cost.ComputePerEdge)
	}
	c.clock.Advance(reconSpan.Max())

	// --- Phase 6: restore fault-tolerance invariants (K replicas, K
	// mirrors) for every stale master, then refresh full state on all its
	// mirrors.
	if err := c.repairFTInvariants(started); err != nil {
		return err
	}
	if err := p.barrier(&rec.ReconstructSeconds); err != nil {
		return err
	}
	p.hook() // FT invariants repaired

	// --- Phase 7: replay activation for the promoted masters only
	// (§5.2.3) and recompute promoted selfish vertices (§4.4).
	isPromoted := func(mn int16, mp int32) bool { return c.nodes[mn].hot[mp].flags&flagPromoted != 0 }
	if err := c.replayActivation(iter, isPromoted); err != nil {
		return err
	}
	for _, nd := range c.aliveNodes() {
		c.recomputeSelfish(nd, isPromoted, iter)
	}
	if err := p.barrier(&rec.ReplaySeconds); err != nil {
		return err
	}

	for _, nd := range c.aliveNodes() {
		c.coord.Set(fmt.Sprintf("arraylen/%d", nd.id), int64(len(nd.hot)))
	}
	// Promotions, move notices, replica-table pruning, cooperative replica
	// creation, and FT repair all reshape the replica tables, master locations
	// (and entry counts) on survivors: every precomputed route is stale now.
	c.markRoutesDirty()
	// The pass completed: no promotion is pending, on any node.
	for _, nd := range c.nodes {
		nd.clearFlag(flagPromoted)
	}
	return nil
}

// repairFTInvariants re-establishes >= K replicas and K mirrors for every
// stale master on nodes, creating FT replicas on the least loaded nodes and
// pushing refreshed full state to all its mirrors, which clears the flag.
func (c *Cluster[V, A]) repairFTInvariants(nodes []*node[V, A]) error {
	alive := c.aliveNodes()
	load := make([]int, c.cfg.NumNodes)
	for _, nd := range alive {
		load[nd.id] = len(nd.hot)
	}

	// Pass 1: plan and execute FT replica creation (driver-sequential for
	// determinism; the records still flow through the network for cost
	// accounting). creates[n] is node n's plan, in position order; each
	// master's rows are appended one after another, so its planned creates
	// are exactly creates[n][start:].
	creates := make([][]ftCreatePlan, c.cfg.NumNodes)
	for _, nd := range nodes {
		n := nd.id
		for pos := range nd.flagged(flagStale) {
			e, rt := &nd.hot[pos], nd.replicas(pos)
			start := len(creates[n])
			for len(rt.nodes)+len(creates[n])-start < c.cfg.FT.K {
				best := -1
				for _, cand := range alive {
					if cand.id == n || rt.hosts(cand.id) || plannedTo(creates[n][start:], cand.id) {
						continue
					}
					if best < 0 || load[cand.id] < load[best] {
						best = cand.id
					}
				}
				if best < 0 {
					break
				}
				creates[n] = append(creates[n], ftCreatePlan{pos: pos, to: best})
				load[best]++
				c.extraReplicas++
				if e.isSelfish() {
					c.extraReplicasSelfish++
				}
				c.totalPresences++
			}
		}
	}
	// Staging walks every node the plan names, alive or not: a node killed
	// since the pass began still stages, and the next barrier reports it.
	for _, nd := range nodes {
		c.stageExact(nd.sendBuf, nd.met, func(s *recSink) {
			for _, cr := range creates[nd.id] {
				c.stageReplicaOf(s, nd, cr.pos, cr.to, flagFTOnly)
			}
		})
	}
	// Uncounted registrations: the migration goldens pin recovery traffic without them.
	if _, err := c.createReplicas(true, false); err != nil {
		return err
	}

	// Pass 2: mirror re-selection for stale masters, then full-state
	// refresh on every mirror of a stale master. mo is one scratch list for
	// every selection; setMirrors stores it in the table in place.
	var mo []int16
	for _, nd := range nodes {
		for pos := range nd.flagged(flagStale) {
			rt := nd.replicas(pos)
			want := min(c.cfg.FT.K, len(rt.nodes))
			mo = mo[:0]
			for _, idx := range rt.mirrorOf {
				if len(mo) >= want {
					break
				}
				if int(idx) < len(rt.nodes) && !slices.Contains(mo, idx) {
					mo = append(mo, idx)
				}
			}
			// Prefer FT-only replicas, then fill arbitrarily (deterministic
			// ascending index).
			for pass := 0; pass < 2 && len(mo) < want; pass++ {
				for idx := range rt.nodes {
					if len(mo) >= want {
						break
					}
					if slices.Contains(mo, int16(idx)) || (pass == 0 && !rt.ftOnly[idx]) {
						continue
					}
					mo = append(mo, int16(idx))
				}
			}
			nd.setMirrors(pos, mo)
		}
	}
	// Mirror full-state refresh. Non-selected replicas of a refreshed
	// master are demoted in the same sweep: an ex-mirror keeping its stale
	// flag and table would vote in a later promotion scan against a
	// different table than the fresh mirrors, and an inconsistent vote can
	// elect two masters for one vertex (§5.3.2 restart after repair).
	for _, nd := range nodes {
		c.stageExact(nd.sendBuf, nd.met, func(s *recSink) {
			for pos := range nd.flagged(flagStale) {
				table := nd.replicas(pos)
				for _, idx := range table.mirrorOf {
					c.putMirrorRecord(s, nd, pos, int(table.nodes[idx]), table.pos[idx], flagMirror)
				}
			}
		})
		c.stageExact(nd.noticeBuf, nd.met, func(s *recSink) {
			for pos := range nd.flagged(flagStale) {
				table := nd.replicas(pos)
				for idx, host := range table.nodes {
					if slices.Contains(table.mirrorOf, int16(idx)) {
						continue
					}
					rpos := table.pos[idx]
					s.put(int(host), 4, func(buf []byte) []byte { return putI32(buf, rpos) })
				}
			}
		})
		nd.clearFlag(flagStale)
	}
	if err := c.exchangeRecords(true, (*node[V, A]).landMirrors); err != nil {
		return err
	}
	return c.exchange(true, (*node[V, A]).applyMirrorDrop)
}

// applyMoveNotice applies one move notice: the replica at its position now
// follows the promoted master it names.
func (nd *node[V, A]) applyMoveNotice(_ int, r *reader) {
	pos, mn, mp := r.slot(len(nd.hot)), r.i16(), r.i32()
	if r.err == nil {
		e := &nd.hot[pos]
		e.masterNode, e.masterPos = mn, mp
	}
}

// applyMasterReply applies one re-promoted master's reply to an orphan's
// registration: the orphan at its position follows the master at from.
func (nd *node[V, A]) applyMasterReply(from int, r *reader) {
	rpos, mpos := r.slot(len(nd.hot)), r.i32()
	if r.err == nil {
		e := &nd.hot[rpos]
		e.masterNode, e.masterPos = int16(from), mpos
	}
}

// landMirrors makes the replicas that FT repair's records name mirrors and
// lands the records' table copies and edge lists.
func (nd *node[V, A]) landMirrors(recs []recoveryRecord[V]) {
	fresh := 0
	for k := range recs {
		if nd.mirror(recs[k].pos) == nil {
			fresh++
		}
	}
	nd.mirrors = slices.Grow(nd.mirrors, fresh)
	for k := range recs {
		rec := &recs[k]
		nd.ensureMirror(rec.pos)
		nd.hot[rec.pos].flags |= flagMirror
	}
	nd.landRecords(recs)
}

// applyMirrorDrop applies one FT repair demotion: the replica at its
// position stops being a mirror.
func (nd *node[V, A]) applyMirrorDrop(_ int, r *reader) {
	if rpos := r.slot(len(nd.hot)); r.err == nil {
		nd.hot[rpos].flags &^= flagMirror
		nd.dropMirror(rpos)
	}
}

// ftCreatePlan schedules, during invariant repair, one FT replica of the
// planning node's master at pos on node to.
type ftCreatePlan struct {
	pos int32
	to  int
}

// createReplicas runs the two rounds that land the replica records staged
// for them (cooperative replica creation, FT repair): each receiver adds the
// replica and registers its position with the master, which adds the row to
// its replica table with ftOnly (addRow, which marks the master stale).
// count decides whether the registration notices count as recovery traffic.
// It returns how many replicas were created.
func (c *Cluster[V, A]) createReplicas(ftOnly, count bool) (int, error) {
	createdPerNode := make([]int, c.cfg.NumNodes)
	if err := c.exchangeRecords(false, func(nd *node[V, A], recs []recoveryRecord[V]) {
		nd.reserve(len(recs))
		newPos := make([]int32, len(recs))
		for k := range recs {
			newPos[k] = c.addReplica(nd, &recs[k])
		}
		createdPerNode[nd.id] = len(recs)
		met := nd.met
		if !count {
			met = nil
		}
		c.stageExact(nd.noticeBuf, met, func(s *recSink) {
			for k := range recs {
				mp, np := recs[k].slot.masterPos, newPos[k]
				s.put(int(recs[k].slot.masterNode), 8, func(buf []byte) []byte { return putI32(putI32(buf, mp), np) })
			}
		})
	}); err != nil {
		return 0, err
	}
	if err := c.exchange(true, func(nd *node[V, A], from int, r *reader) {
		mp, newPos := r.i32(), r.i32()
		if r.err != nil {
			return
		}
		nd.addRow(mp, int16(from), newPos, ftOnly)
	}); err != nil {
		return 0, err
	}
	created := 0
	for _, n := range createdPerNode {
		created += n
	}
	return created, nil
}

// replicaRequest is a node's request, in cooperative replica creation, for a
// replica of the master at pos.
type replicaRequest struct {
	pos  int32
	from int
}

// stageReplicaOf stages on nd the record creating a plain replica of its
// master at pos on node dst.
func (c *Cluster[V, A]) stageReplicaOf(s *recSink, nd *node[V, A], pos int32, dst int, flags entryFlags) {
	r := nd.hot[pos].carried()
	r.flags = flags | r.flags&flagSelfish
	r.masterNode, r.masterPos = int16(nd.id), pos
	c.putRecord(s, dst, -1, &r, nil, nil)
}

// addReplica creates the local slot a replica recovery record describes
// (cooperative replica creation, FT repair) and returns its position.
func (c *Cluster[V, A]) addReplica(nd *node[V, A], rec *recoveryRecord[V]) int32 {
	s := rec.slot.slot()
	s.active = c.always
	return nd.add(s)
}

// plannedTo reports whether one master's plan rows create a replica on to.
func plannedTo(creates []ftCreatePlan, to int) bool {
	for _, cr := range creates {
		if cr.to == to {
			return true
		}
	}
	return false
}

// recomputeSelfish restores the dynamic state of the selfish masters the
// predicate selects on nd: recovered or promoted without value
// synchronization under the §4.4 optimization, their value is recomputed from
// the (already recovered) in-neighbors.
func (c *Cluster[V, A]) recomputeSelfish(nd *node[V, A], isTarget func(mn int16, mp int32) bool, iter int) {
	if !c.selfishOptOn || nd == nil || !nd.alive {
		return
	}
	prev := max(iter-1, 0)
	for i := range nd.hot {
		e := &nd.hot[i]
		if !e.isMaster() || !e.isSelfish() || !isTarget(int16(nd.id), int32(i)) || nd.inLen(i) == 0 {
			continue
		}
		acc, has, _ := c.gather(nd, i)
		initVal, _ := c.prog.Init(e.id, e.info())
		newV, _ := c.prog.Apply(e.id, e.info(), initVal, acc, has, prev)
		e.value = newV
	}
}
