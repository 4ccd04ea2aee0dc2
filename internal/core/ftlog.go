package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"imitator/internal/costmodel"
	"imitator/internal/ftlog"
	"imitator/internal/netsim"
)

// This file is the engine side of log-based failure-confined recovery
// (Config.Logged + RecoverLogged; wire format in internal/ftlog).
//
// Write path: during each superstep every node captures the raw sync
// payloads it receives, in receive order; after commit it persists one log
// file holding its touched-master deltas plus those payloads. Every
// CompactEvery supersteps the file is instead a full snapshot record of
// every entry, bounding replay chains.
//
// Recovery path: a reborn node rebuilds its immutable topology from the
// pristine loader state, then replays its own log chain — full record
// first, then per-superstep deltas and message payloads — reaching exactly
// the state the crashed node had committed. Survivors neither roll back
// nor recompute: the failure is confined to the reborn nodes.

// flogPath names one node's log file for one committed superstep.
func flogPath(node, superstep int) string { return fmt.Sprintf("ftlog/%d/%d", node, superstep) }

// flogState is the per-run log runtime, nil unless Recovery is Logged —
// the capture hook in the receive phases is a nil check away from the
// fault-free hot path, which stays bit-identical.
type flogState struct {
	// msgScratch[n] accumulates node n's received sync payloads this
	// superstep, already length-framed; msgCount[n] counts them. Receive
	// phases run one goroutine per node, so slot access is contention-free.
	msgScratch [][]byte
	msgCount   []int

	// fullEpochs lists the supersteps persisted as full (compaction)
	// records, ascending; replay chains start at the latest one.
	fullEpochs []int

	// Reusable per-write scratch (per-node slots).
	nodeCosts []float64
	nodeRecs  []int
	nodeBytes []int64

	// records counts the persisted delta and message records (StrategyStats).
	records int64
}

// flogInit builds the log runtime (load step 10, logged recovery only).
func (c *Cluster[V, A]) flogInit() {
	n := c.cfg.NumNodes
	c.flog = &flogState{
		msgScratch: make([][]byte, n),
		msgCount:   make([]int, n),
		nodeCosts:  make([]float64, n),
		nodeRecs:   make([]int, n),
		nodeBytes:  make([]int64, n),
	}
}

// flogCapture copies the receive round's sync payloads into the node's
// message log scratch, in receive order. Payload buffers recycle after
// decode, so the log keeps its own framed copy.
func (c *Cluster[V, A]) flogCapture(nd *node[V, A], msgs []netsim.Message) {
	f := c.flog
	buf := f.msgScratch[nd.id]
	for i := range msgs {
		if msgs[i].Kind != netsim.KindSync {
			continue
		}
		if buf == nil {
			buf = c.pool.Get()
		}
		buf = ftlog.AppendMessage(buf, msgs[i].Payload)
		f.msgCount[nd.id]++
	}
	f.msgScratch[nd.id] = buf
}

// flogRollback discards the aborted iteration's captured messages (the
// re-execution will capture them again).
func (c *Cluster[V, A]) flogRollback() {
	f := c.flog
	for i, buf := range f.msgScratch {
		if cap(buf) > 0 {
			c.pool.Put(buf)
		}
		f.msgScratch[i] = nil
		f.msgCount[i] = 0
	}
}

// flogWrite persists superstep c.iter-1's log file on every alive node:
// touched-master deltas plus the captured sync payloads, or a full
// snapshot record of every entry on compaction supersteps. Nodes write
// concurrently.
func (c *Cluster[V, A]) flogWrite() {
	f := c.flog
	s := c.iter - 1
	ce := c.cfg.Logged.CompactEvery
	full := ce > 0 && c.iter%ce == 0
	kind := ftlog.KindDelta
	if full {
		kind = ftlog.KindFull
	}
	start := c.clock.Now()
	c.runPhase(func(nd *node[V, A]) {
		buf := ftlog.AppendFileHeader(c.pool.Get(), uint32(s), kind)
		buf, recAt := ftlog.AppendCountPlaceholder(buf)
		count := 0
		for i := range nd.hot {
			e := &nd.hot[i]
			if !full && (!e.isMaster() || e.lastTouchedIter != int32(s)) {
				continue
			}
			var flags byte
			if e.active {
				flags |= ftlog.FlagActive
			}
			if e.lastActivate {
				flags |= ftlog.FlagLastActivate
			}
			var vAt int
			buf, vAt = ftlog.AppendRecordPrefix(buf, uint32(i), flags, e.lastActivateIter)
			buf = c.vc.Append(buf, e.value)
			ftlog.PatchValLen(buf, vAt)
			count++
		}
		ftlog.PatchCount(buf, recAt, count)
		buf, msgAt := ftlog.AppendCountPlaceholder(buf)
		msgs := 0
		if !full {
			buf = append(buf, f.msgScratch[nd.id]...)
			msgs = f.msgCount[nd.id]
			ftlog.PatchCount(buf, msgAt, msgs)
		}
		if cap(f.msgScratch[nd.id]) > 0 {
			c.pool.Put(f.msgScratch[nd.id])
		}
		f.msgScratch[nd.id] = nil
		f.msgCount[nd.id] = 0
		f.nodeCosts[nd.id] = c.flogWriteCost(nd, flogPath(nd.id, s), buf)
		f.nodeRecs[nd.id] = count + msgs
		f.nodeBytes[nd.id] = int64(len(buf))
		c.pool.Put(buf)
	})
	var span costmodel.Span
	for _, nd := range c.aliveNodes() {
		span.Observe(f.nodeCosts[nd.id])
		f.records += int64(f.nodeRecs[nd.id])
		c.persistBytes += f.nodeBytes[nd.id]
		f.nodeCosts[nd.id], f.nodeRecs[nd.id], f.nodeBytes[nd.id] = 0, 0, 0
	}
	c.clock.Advance(span.Max())
	c.persistSeconds += span.Max()
	if full {
		f.fullEpochs = append(f.fullEpochs, s)
	}
	c.emit(TraceFTLog, s, start)
}

// flogWriteCost stores the log file and returns its simulated cost. The
// bytes land on the (failure-surviving) DFS, but the cost model charges a
// stream append — Params.LogWrite — rather than a snapshot-style create:
// log files append to a pre-opened pipeline, skipping the per-operation
// namenode round-trips DFSWrite pays.
func (c *Cluster[V, A]) flogWriteCost(nd *node[V, A], path string, data []byte) float64 {
	c.dfs.Write(nd.id, path, slices.Clone(data)) // data is the caller's pooled encode buffer
	nd.met.DFSWriteBytes += int64(len(data))
	return c.cfg.Cost.LogWrite(int64(len(data)))
}

// recoverLogged rebuilds each crashed node from the pristine loader state
// and replays its own log chain (§ DESIGN.md 10.3). Survivors perform zero
// recomputation: no rollback beyond the aborted iteration, no snapshot
// reload, no re-executed supersteps — ReplayIters stays 0 and the cluster
// iteration counter is untouched.
func (c *Cluster[V, A]) recoverLogged(p *recoveryPass[V, A]) error {
	// Join: the newbies entered the membership with the crashed slots'
	// immutable topology (pristineNewbie). Unlike the other strategies,
	// logged announces a phase before the barrier that ends it, so a crash
	// keyed on the label surfaces at that very barrier.
	p.hook() // newbies joined
	if err := p.barrier(&p.rec.ReloadSeconds); err != nil {
		return err
	}

	// Replay: each reborn node alone reads and applies its log chain;
	// the reborn nodes replay concurrently (span), survivors stay idle.
	var span costmodel.Span
	maxSteps := 0
	for _, f := range p.failed {
		nd := c.nodes[f]
		if !nd.alive {
			continue // killed again mid-recovery; the restart handles it
		}
		cost, steps, err := c.flogReplay(nd, p.iter)
		if err != nil {
			return err
		}
		span.Observe(cost)
		if steps > maxSteps {
			maxSteps = steps
		}
	}
	c.clock.Advance(span.Max())
	p.rec.LogReplaySupersteps = maxSteps
	p.hook() // logs replayed
	return p.barrier(&p.rec.ReplaySeconds)
}

// flogReplay applies nd's log chain up to (and including) superstep
// iter-1: the latest full record at or before it, then every later
// superstep's deltas and logged sync payloads. Returns the node's
// simulated replay cost and the number of log files applied.
func (c *Cluster[V, A]) flogReplay(nd *node[V, A], iter int) (float64, int, error) {
	s0 := 0
	for _, fe := range c.flog.fullEpochs {
		if fe <= iter-1 {
			s0 = fe
		}
	}
	cost := 0.0
	steps := 0
	for s := s0; s <= iter-1; s++ {
		data, rcost, err := c.dfs.Read(nd.id, flogPath(nd.id, s))
		if err != nil {
			return 0, 0, fmt.Errorf("core: log replay node %d superstep %d: %w", nd.id, s, err)
		}
		nd.met.DFSReadBytes += int64(len(data))
		cost += rcost
		installed, err := c.flogApply(nd, data, s)
		if err != nil {
			return 0, 0, fmt.Errorf("core: log replay node %d superstep %d: %w", nd.id, s, err)
		}
		cost += float64(installed) * c.cfg.Cost.ReconstructPerVertex
		steps++
	}
	return cost, steps, nil
}

// flogApply installs one log file's records into nd's entries: state
// records restore masters (and, in full records, every entry); message
// payloads replay the sync records the crashed node had received at
// superstep s, with the same commit semantics the live path applied.
func (c *Cluster[V, A]) flogApply(nd *node[V, A], data []byte, s int) (int, error) {
	dec, err := ftlog.NewDecoder(data)
	if err != nil {
		return 0, err
	}
	if got := int(dec.Superstep()); got != s {
		return 0, fmt.Errorf("core: log superstep %d != %d", got, s)
	}
	installed := 0
	for {
		r, ok, err := dec.NextRecord()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if int(r.Pos) >= len(nd.hot) {
			return 0, fmt.Errorf("core: log record position %d outside array", r.Pos)
		}
		val, _, err := c.vc.Read(r.Val)
		if err != nil {
			return 0, err
		}
		e := &nd.hot[r.Pos]
		e.value = val
		e.lastActivate = r.Flags&ftlog.FlagLastActivate != 0
		e.lastActivateIter = r.Stamp
		if e.isMaster() {
			e.active = r.Flags&ftlog.FlagActive != 0
		}
		e.clearPending()
		installed++
	}
	for {
		payload, ok, err := dec.NextMessage()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		n, err := c.flogApplySync(nd, payload, int32(s))
		if err != nil {
			return 0, err
		}
		installed += n
	}
	return installed, nil
}

// flogApplySync replays one logged sync payload: the same record stream
// applySync decodes live, installed directly with the commit-time
// semantics (value, scatter flag, stamp s).
func (c *Cluster[V, A]) flogApplySync(nd *node[V, A], payload []byte, s int32) (int, error) {
	installed := 0
	buf := payload
	for len(buf) > 0 {
		if len(buf) < 5 {
			return 0, fmt.Errorf("core: truncated logged sync record")
		}
		pos := binary.LittleEndian.Uint32(buf)
		flags := buf[4]
		val, rest, err := c.vc.Read(buf[5:])
		if err != nil {
			return 0, err
		}
		if int(pos) >= len(nd.hot) {
			return 0, fmt.Errorf("core: logged sync position %d outside array", pos)
		}
		e := &nd.hot[pos]
		e.value = val
		e.lastActivate = flags&1 != 0
		e.lastActivateIter = s
		e.clearPending()
		installed++
		buf = rest
	}
	return installed, nil
}
