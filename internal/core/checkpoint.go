package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"imitator/internal/costmodel"
)

// ckptPath names the data snapshot of one node at one epoch.
func ckptPath(epoch, node int) string { return fmt.Sprintf("ckpt/%d/node%d", epoch, node) }

// writeCheckpoint snapshots every node's master state to the DFS inside the
// global barrier (§2.2). The epoch is the current (committed) iteration.
func (c *Cluster[V, A]) writeCheckpoint() {
	start := c.clock.Now()
	c.writeCheckpointAt(c.iter, true)
	c.emit(TraceCheckpoint, c.iter, start)
}

// writeCheckpointAt writes the full epoch snapshot; when charge is set the
// cost advances the simulated clock (barrier-synchronous checkpointing), else
// it accrues to load time (the initial epoch-0 snapshot).
func (c *Cluster[V, A]) writeCheckpointAt(epoch int, charge bool) {
	// Nodes snapshot concurrently (they do on a real cluster).
	nodeCosts := make([]float64, c.cfg.NumNodes)
	nodeBytes := make([]int64, c.cfg.NumNodes)
	c.runPhase(func(nd *node[V, A]) {
		buf := putU32(c.pool.Get(), uint32(epoch))
		countAt := len(buf)
		buf = putU32(buf, 0) // patched below
		count := 0
		for i := range nd.hot {
			if e := &nd.hot[i]; e.isMaster() {
				buf = appendSlotState(buf, c.vc, int32(i), e)
				count++
			}
		}
		binary.LittleEndian.PutUint32(buf[countAt:countAt+4], uint32(count))
		// The DFS keeps what it is given, so it gets a copy and the encode
		// buffer goes back to the pool.
		cost := c.dfsWriteCost(nd, ckptPath(epoch, nd.id), slices.Clone(buf))
		if c.cfg.Checkpoint.InMemory {
			// Memory-backed HDFS: bandwidth is the network, not disk, and
			// the paper notes triple replication still crosses machines.
			cost = c.cfg.Cost.NetTransfer(int64(len(buf)) * int64(c.cfg.Cost.DFSReplication-1))
		}
		nodeBytes[nd.id] = int64(len(buf))
		c.pool.Put(buf)
		nodeCosts[nd.id] = cost
	})
	var span costmodel.Span
	for _, cost := range nodeCosts {
		span.Observe(cost)
	}
	if charge {
		c.clock.Advance(span.Max())
		c.persistSeconds += span.Max()
		for _, b := range nodeBytes {
			c.persistBytes += b
		}
	} else {
		c.loadSeconds += span.Max()
	}
	c.ckptEpoch = epoch
}

// appendSlotState encodes one slot's committed state, the record both data
// snapshots and fullResync carry:
// i32 pos | value | bool active | bool lastActivate | i32 lastActivateIter.
func appendSlotState[V any](b []byte, vc Codec[V], pos int32, e *hot[V]) []byte {
	b = putI32(b, pos)
	b = vc.Append(b, e.value)
	b = putBool(b, e.active)
	b = putBool(b, e.lastActivate)
	return putI32(b, e.lastActivateIter)
}

// slotStateSize is the length appendSlotState writes for slot e.
func slotStateSize[V any](vc Codec[V], e *hot[V]) int { return 10 + vc.Size(e.value) }

// readSlotState decodes one appendSlotState record into its slot of slots
// and drops the slot's pending update. A master keeps its own active flag
// unless masterActive is set: a snapshot restores masters, a resync only
// mirrors their flags onto replicas. A short record or an out-of-range
// position leaves r.err set and slots untouched.
func readSlotState[V any](r *reader, vc Codec[V], slots []hot[V], masterActive bool) {
	pos := r.i32()
	value := readValue(r, vc)
	active := r.bool()
	lastActivate := r.bool()
	stamp := r.i32()
	if r.err == nil && (pos < 0 || int(pos) >= len(slots)) {
		r.fail()
	}
	if r.err != nil {
		return
	}
	e := &slots[pos]
	e.value = value
	if masterActive || !e.isMaster() {
		e.active = active
	}
	e.lastActivate = lastActivate
	e.lastActivateIter = stamp
	e.clearPending()
}

// restoreFromSnapshot loads a node's snapshot at epoch into its entries.
func (c *Cluster[V, A]) restoreFromSnapshot(nd *node[V, A], epoch int) (float64, error) {
	data, cost, err := c.dfs.Read(nd.id, ckptPath(epoch, nd.id))
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint restore node %d: %w", nd.id, err)
	}
	nd.met.DFSReadBytes += int64(len(data))
	r := &reader{buf: data}
	gotEpoch := int(r.u32())
	if gotEpoch != epoch {
		return 0, fmt.Errorf("core: snapshot epoch %d != %d", gotEpoch, epoch)
	}
	count := int(r.u32())
	for k := 0; k < count; k++ {
		readSlotState(r, c.vc, nd.hot, true)
		if r.err != nil {
			return 0, r.err
		}
	}
	return cost, nil
}

// pristineNewbie builds the standby node that takes over crashed slot f for
// checkpoint and logged recovery: immutable topology from the pristine loader
// state (the metadata snapshot's content, whose read it charges by size),
// dynamic state left for the strategy's reload or replay.
func (c *Cluster[V, A]) pristineNewbie(p *recoveryPass[V, A], f int) (*node[V, A], error) {
	nd := c.rebuildPristineNode(f)
	if nd == nil {
		return nil, fmt.Errorf("%w: no pristine state for node %d", ErrUnrecoverable, f)
	}
	metaSize, err := c.dfs.Size(fmt.Sprintf("ckptmeta/%d", f))
	if err != nil {
		return nil, fmt.Errorf("core: metadata snapshot: %w", err)
	}
	nd.met.DFSReadBytes += metaSize
	c.clock.Advance(c.cfg.Cost.DFSRead(metaSize))
	p.rec.RecoveredVertices += len(nd.hot)
	p.rec.RecoveredEdges += len(nd.inNbr)
	return nd, nil
}

// recoverCheckpoint is the paper's baseline: every node — survivors
// included — rolls back to the last snapshot; the newbies that took over the
// crashed slots load it too; then the whole cluster replays the lost
// iterations (§2.2, Fig 2c).
func (c *Cluster[V, A]) recoverCheckpoint(p *recoveryPass[V, A]) error {
	epoch := c.ckptEpoch
	p.hook() // newbies joined

	// Reload: every node — survivors included — re-reads its graph topology
	// from the metadata snapshot and its state from the data snapshot
	// (§2.3.2: "all nodes first reload the graph topology from the metadata
	// snapshot in parallel and then update states"). Our survivors'
	// in-memory topology happens to be intact, so the metadata read is a
	// pure cost charge mirroring the paper's systems, which rebuild from
	// scratch to reach a consistent state.
	// Per-node slots: the reload closures run concurrently.
	nodeCosts := make([]float64, c.cfg.NumNodes)
	nodeErrs := make([]error, c.cfg.NumNodes)
	c.runPhase(func(nd *node[V, A]) {
		metaSize, err := c.dfs.Size(fmt.Sprintf("ckptmeta/%d", nd.id))
		if err != nil {
			nodeErrs[nd.id] = err
			return
		}
		nd.met.DFSReadBytes += metaSize
		dataCost, err := c.restoreFromSnapshot(nd, epoch)
		if err != nil {
			nodeErrs[nd.id] = err
			return
		}
		nodeCosts[nd.id] = c.cfg.Cost.DFSRead(metaSize) + dataCost
	})
	var span costmodel.Span
	for i, err := range nodeErrs {
		if err != nil {
			return err
		}
		span.Observe(nodeCosts[i])
	}
	c.clock.Advance(span.Max())
	if err := p.barrier(&p.rec.ReloadSeconds); err != nil {
		return err
	}
	p.hook() // snapshots reloaded

	// Reconstruct: newbies materialize entries; then a full resync restores
	// every replica from its master (survivors rolled back too, so all
	// replicas are stale).
	var reconSpan costmodel.Span
	for _, f := range p.failed {
		nd := c.nodes[f]
		reconSpan.Observe(float64(len(nd.hot))*c.cfg.Cost.ReconstructPerVertex +
			float64(len(nd.inNbr))*c.cfg.Cost.ComputePerEdge)
	}
	c.clock.Advance(reconSpan.Max())
	if err := c.fullResync(); err != nil {
		return err
	}
	if err := p.barrier(&p.rec.ReconstructSeconds); err != nil {
		return err
	}

	// Replay: the main loop re-executes epoch..p.iter-1; the report's
	// ReplaySeconds is folded from the timeline when the run ends.
	p.rec.Iteration, p.rec.ReplayIters = epoch, p.iter-epoch
	c.iter = epoch
	return nil
}

// rebuildPristineNode recreates a node's loader state from the retained
// pristine node: a copy of its initial hot slots and a fresh id index, and
// the topology, slab handles, role slabs and arenas themselves, which stay
// shared (retainPristine).
func (c *Cluster[V, A]) rebuildPristineNode(id int) *node[V, A] {
	if c.pristine == nil || c.pristine[id] == nil {
		return nil
	}
	nd := new(node[V, A])
	*nd = *c.pristine[id]
	nd.alive, nd.met = true, &c.met.Nodes[id]
	nd.hot = slices.Clone(nd.hot)
	nd.index = newIndex(c.g.NumVertices())
	for i := range nd.hot {
		nd.index[nd.hot[i].id] = int32(i)
	}
	c.initNodeScratch(nd)
	return nd
}

// fullResync pushes every master's committed state to all of its replicas,
// including activity flags; used after snapshot restores.
func (c *Cluster[V, A]) fullResync() error {
	c.runPhase(func(nd *node[V, A]) {
		c.stageExact(nd.sendBuf, nd.met, func(s *recSink) {
			for i := range nd.hot {
				e := &nd.hot[i]
				if !e.isMaster() {
					continue
				}
				rt := nd.replicas(int32(i))
				size := slotStateSize(c.vc, e)
				for ri, rn := range rt.nodes {
					pos := rt.pos[ri]
					s.put(int(rn), size, func(buf []byte) []byte {
						return appendSlotState(buf, c.vc, pos, e)
					})
				}
			}
		})
	})
	return c.exchange(false, func(nd *node[V, A], _ int, r *reader) {
		readSlotState(r, c.vc, nd.hot, false)
	})
}
