package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"imitator/internal/bufpool"
	"imitator/internal/coord"
	"imitator/internal/costmodel"
	"imitator/internal/dfs"
	"imitator/internal/graph"
	"imitator/internal/metrics"
	"imitator/internal/netsim"
	"imitator/internal/partition"
)

// node is one simulated machine's runtime state.
type node[V, A any] struct {
	id    int
	alive bool
	// hot and ref are the position-parallel vertex tables (entry.go), csr
	// the local topology by the same positions; ref's handles index the role
	// slabs masters (one replica table per master slot) and mirrors (one full
	// state per mirror slot), whose entries are in turn handles into the
	// arenas: tables holds every replica table's rows (and, parallel to
	// them, its mirror indexes), edges every mirror's in-edge list, with
	// weights exactly when the graph is weighted. index maps every vertex id
	// of the graph to its position here, noPos if absent.
	hot []hot[V]
	csr
	ref     []slabRef
	masters []tableRef
	mirrors []mirrorState
	tables  replicaTable
	edges   rawEdges
	index   []int32
	met     *metrics.Node

	// scratch: per-destination send buffers, reused across rounds.
	sendBuf [][]byte
	// scratch: activation notices staged out-of-round (vertex-cut scatter),
	// flushed in their own round.
	noticeBuf [][]byte
	// scratch: per-superstep compute cost in simulated seconds.
	phaseCost float64

	// bounds is the reusable chunk list of the cost-bearing phases.
	bounds [][2]int

	// scatter is the vertex-cut scatter route (slot -> its out-targets'
	// masters); routeDirty forces routeReady to rebuild it and to reserve the
	// round buffers again before the next compute phase (load and recovery
	// reshape the out-lists, the replica tables and move masters). Edge-cut
	// builds no route but reserves its round buffers the same way.
	scatter    scatterRoute
	routeDirty bool

	// localPart/mergedPart are the vertex-cut gather scratch, retained
	// across supersteps and cleared in the phase prologue.
	localPart  []gatherPartial[A]
	mergedPart []gatherPartial[A]
}

func (n *node[V, A]) pos(id graph.VertexID) (int32, bool) {
	if int(id) >= len(n.index) {
		return noPos, false
	}
	p := n.index[id]
	return p, p != noPos
}

// add appends one role-less slot, with no edges, to the tables and indexes
// it.
func (n *node[V, A]) add(h hot[V]) int32 {
	pos := int32(len(n.hot))
	n.hot = append(n.hot, h)
	n.ref = append(n.ref, slabRef{master: noSlab, mirror: noSlab})
	n.inStart = append(n.inStart, n.inStart[pos])
	n.outStart = append(n.outStart, n.outStart[pos])
	n.index[h.id] = pos
	return pos
}

// reserve grows the tables once so that the next k adds fit.
func (n *node[V, A]) reserve(k int) {
	n.hot = slices.Grow(n.hot, k)
	n.ref = slices.Grow(n.ref, k)
	n.inStart = slices.Grow(n.inStart, k)
	n.outStart = slices.Grow(n.outStart, k)
}

// batchEdge adds the edge src -> dst to b by its endpoints' local positions.
func (n *node[V, A]) batchEdge(b *edgeBatch, src, dst graph.VertexID, wt float64) error {
	sp, ok1 := n.pos(src)
	dp, ok2 := n.pos(dst)
	if !ok1 || !ok2 {
		return fmt.Errorf("%w: node %d edge endpoint missing (%d->%d)", ErrUnrecoverable, n.id, src, dst)
	}
	b.add(sp, dp, wt)
	return nil
}

// batchInEdges adds slot dp's raw in-edge list to b.
func (n *node[V, A]) batchInEdges(b *edgeBatch, dp int32, re *rawEdges) error {
	for k, src := range re.src {
		if err := n.batchEdge(b, src, n.hot[dp].id, re.wt.at(k)); err != nil {
			return err
		}
	}
	return nil
}

// phaseFns holds the cluster-level pre-bound phase functions, built once by
// bindPhases and handed to runPhase by superstep and the rounds. Pre-binding
// keeps the steady-state loop from allocating a closure per phase
// (TestSteadyStateSuperstepAllocFree). The bodies run on every node in
// parallel; `go test -race ./internal/core/` gates their cross-node writes.
type phaseFns[V, A any] struct {
	flushSend   func(*node[V, A])
	flushNotice func(*node[V, A])
	commit      func(*node[V, A])
	rollback    func(*node[V, A])
	ecCompute   func(*node[V, A])
	syncStage   func(*node[V, A]) // syncStage/syncRecv double as the vertex-cut R3 phases
	syncRecv    func(*node[V, A])
	vcR1Stage   func(*node[V, A])
	vcR1Recv    func(*node[V, A])
	vcGather    func(*node[V, A])
	vcMerge     func(*node[V, A])
	vcNotice    func(*node[V, A])
}

// Cluster is a running job: the simulated machines, interconnect, DFS,
// coordination service and the loaded, partitioned graph.
type Cluster[V, A any] struct {
	cfg  Config
	g    *graph.Graph
	prog Program[V, A]
	vc   Codec[V]
	ac   Codec[A]

	nodes []*node[V, A]
	net   *netsim.Network
	dfs   *dfs.DFS
	coord *coord.Coordinator
	met   *metrics.Cluster
	clock costmodel.Clock

	// pool recycles wire buffers (send, notice, checkpoint encode) across
	// rounds; see internal/bufpool.
	pool *bufpool.Pool

	// aliveList caches the alive nodes; aliveDirty is set whenever
	// membership changes (crash, rebirth, checkpoint rebuild).
	aliveList  []*node[V, A]
	aliveDirty bool

	// Persistent phase workers: work feeds phaseWidth =
	// min(NumNodes, HostParallelism) goroutines. No phase body blocks
	// across nodes, so a 64-node simulation on an 8-core host runs 8 phase
	// goroutines instead of thrashing the scheduler with 64.
	work       chan *node[V, A]
	phaseWidth int
	phaseFn    func(*node[V, A])
	phaseWG    sync.WaitGroup
	// workersDone counts the live worker goroutines; stopWorkers waits on
	// it, so nothing references the cluster from a goroutine once Run (or
	// NewCluster) has returned.
	workersDone sync.WaitGroup

	// fns are the pre-bound phase functions (built once by bindPhases);
	// flushKind/curIter/always are the per-phase parameters they read.
	fns       phaseFns[V, A]
	flushKind netsim.Kind
	curIter   int
	always    bool

	// masterLoc mirrors the coordination service's master directory: the
	// node currently hosting each vertex's master (updated by Migration).
	masterLoc []int16

	// Retained partitioning (for checkpoint-recovery rebuilds and stats).
	ec   *partition.EdgeCut
	vcut *partition.VertexCut

	// flog is the superstep-log runtime, nil unless Recovery is Logged.
	flog *flogState

	// pristine retains each node's post-load state, as a node holding no
	// scratch, under checkpoint and logged recovery, so a standby newbie can
	// rebuild a crashed node's immutable topology (the metadata snapshot's
	// content).
	pristine []*node[V, A]

	iter         int
	rebirthsUsed int
	ckptEpoch    int // iteration captured by the last completed checkpoint

	// selfishOptOn is the effective §4.4 switch (configured AND supported
	// by the program).
	selfishOptOn bool

	// Stats for the figures.
	extraReplicas        int // FT-only replicas added at load
	extraReplicasSelfish int // of which belong to selfish vertices (§4.4)
	totalPresences       int // all vertex presences after FT extension
	loadSeconds          float64
	persistSeconds       float64 // superstep-end snapshot or log writes
	persistBytes         int64
	trace                []TraceEvent
	recoveries           []RecoveryReport

	// chaos drives a Config.Chaos schedule; nil when no schedule is set, so
	// fault-free runs never touch it (bit-identical timing either way).
	chaos *chaosRuntime

	// serve is the live-query runtime, nil unless Config.Serve.Enabled; the
	// run loop publishes committed snapshots into it (serve.go).
	serve *serveState[V]

	// testHook, when set, observes the recovery phase labels as passes
	// announce them (SetRecoveryHook).
	testHook func(phase string)
}

// NewCluster loads, partitions and replicates the graph per cfg, returning
// a cluster ready to Run.
func NewCluster[V, A any](cfg Config, g *graph.Graph, prog Program[V, A]) (*Cluster[V, A], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	always := prog.AlwaysActive()
	selfish := cfg.replicates() && cfg.FT.SelfishOpt && prog.CanRecomputeSelfish()
	if selfish && !always {
		return nil, fmt.Errorf("core: selfish recomputation requires an always-active program")
	}
	net, err := netsim.New(cfg.NumNodes, cfg.Cost)
	if err != nil {
		return nil, err
	}
	if cfg.ChaosHasOmission() {
		// The lossy-channel + reliable-delivery decorator exists only for
		// schedules that need it: the reliable path stays byte-identical.
		net.EnableOmission(cfg.ChaosSeed)
	}
	d, err := dfs.New(cfg.NumNodes, cfg.Cost)
	if err != nil {
		return nil, err
	}
	co, err := coord.New(cfg.NumNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster[V, A]{
		cfg:          cfg,
		g:            g,
		prog:         prog,
		vc:           prog.ValueCodec(),
		ac:           prog.AccCodec(),
		net:          net,
		dfs:          d,
		coord:        co,
		met:          metrics.NewCluster(cfg.NumNodes),
		pool:         bufpool.New(),
		always:       always,
		selfishOptOn: selfish,
	}
	c.phaseWidth = min(cfg.hostParallelism(), cfg.NumNodes)
	c.bindPhases()
	if err := c.load(); err != nil {
		c.stopWorkers()
		return nil, err
	}
	if cfg.Serve.Enabled {
		if err := c.serveInit(); err != nil {
			c.stopWorkers()
			return nil, err
		}
	}
	// Park the phase workers until Run; a cluster that is built but never
	// run must not leak goroutines.
	c.stopWorkers()
	return c, nil
}

// bindPhases builds the cluster-level pre-bound phase functions once.
func (c *Cluster[V, A]) bindPhases() {
	c.fns.flushSend = func(nd *node[V, A]) { c.flush(nd, nd.sendBuf, c.flushKind) }
	c.fns.flushNotice = func(nd *node[V, A]) { c.flush(nd, nd.noticeBuf, netsim.KindActivation) }
	c.fns.commit = func(nd *node[V, A]) {
		iter := int32(c.curIter)
		always := c.always
		for i := range nd.hot {
			e := &nd.hot[i]
			if e.hasPending {
				e.value = e.pendingValue
				e.lastActivate = e.pendingScatter
				e.lastActivateIter = iter
				e.hasPending = false
				e.lastTouchedIter = iter
			}
			if e.isMaster() {
				newActive := e.pendingActive || always
				if newActive != e.active {
					e.lastTouchedIter = iter
				}
				e.active = newActive
			}
			e.pendingActive = false
			e.pendingScatter = false
		}
	}
	c.fns.rollback = func(nd *node[V, A]) {
		for i := range nd.hot {
			nd.hot[i].clearPending()
		}
		c.net.Drop(nd.id)
		for dst, buf := range nd.sendBuf {
			if cap(buf) > 0 {
				c.pool.Put(buf)
			}
			nd.sendBuf[dst] = nil
		}
		for dst, buf := range nd.noticeBuf {
			if cap(buf) > 0 {
				c.pool.Put(buf)
			}
			nd.noticeBuf[dst] = nil
		}
	}
	c.bindEdgeCutPhases()
	c.bindVertexCutPhases()
}

// initNodeScratch wires a freshly constructed node into the cluster's
// buffer and routing machinery. Every node-creation site (load,
// rebirth, checkpoint rebuild) must call it.
func (c *Cluster[V, A]) initNodeScratch(nd *node[V, A]) {
	width := c.cfg.NumNodes
	nd.sendBuf = make([][]byte, width)
	nd.noticeBuf = make([][]byte, width)
	nd.routeDirty = true
	c.aliveDirty = true
}

// ensureWorkers lazily spawns the persistent phase workers. Every phase
// body is non-blocking across nodes (compute, flush into netsim buffers,
// coord KV ops), so the capped pool cannot deadlock.
func (c *Cluster[V, A]) ensureWorkers() {
	if c.work != nil {
		return
	}
	// Workers range over a captured local, never the c.work field: a worker
	// that received no work before stopWorkers nils the field would otherwise
	// race with that write (and could block forever on a nil channel).
	work := make(chan *node[V, A], c.cfg.NumNodes)
	c.work = work
	c.workersDone.Add(c.phaseWidth)
	for i := 0; i < c.phaseWidth; i++ {
		go func() {
			defer c.workersDone.Done()
			for nd := range work {
				c.phaseFn(nd)
				c.phaseWG.Done()
			}
		}()
	}
}

// stopWorkers shuts the phase workers down and returns once they have
// exited; runPhase restarts them on demand.
func (c *Cluster[V, A]) stopWorkers() {
	if c.work != nil {
		close(c.work)
		c.work = nil
		c.workersDone.Wait()
	}
}

// runPhase runs fn once per alive node on the persistent workers and waits.
// Cold paths pass closure literals; hot paths pass the pre-bound fns fields.
// phaseFn is written while all workers are parked (the previous phase's
// Wait returned), and the channel sends publish it.
func (c *Cluster[V, A]) runPhase(fn func(n *node[V, A])) {
	c.ensureWorkers()
	alive := c.aliveNodes()
	c.phaseFn = fn
	c.phaseWG.Add(len(alive))
	for _, n := range alive {
		c.work <- n
	}
	c.phaseWG.Wait()
}

// aliveNodes returns the running nodes (cached; membership changes set
// aliveDirty).
func (c *Cluster[V, A]) aliveNodes() []*node[V, A] {
	if c.aliveDirty {
		c.aliveList = c.aliveList[:0]
		for _, n := range c.nodes {
			if n != nil && n.alive {
				c.aliveList = append(c.aliveList, n)
			}
		}
		c.aliveDirty = false
	}
	return c.aliveList
}

// barrier passes the coordination barrier for every alive node and returns
// the barrier state they share. The driver runs every node, so it knows
// they have all arrived; failures were confirmed to the coordinator on this
// goroutine (crash -> detector -> MarkFailed) and surface here. With no
// node left alive nobody reaches the barrier to learn of the failures, so
// the job cannot go on.
func (c *Cluster[V, A]) barrier() (coord.BarrierState, error) {
	if len(c.aliveNodes()) == 0 {
		return coord.BarrierState{}, fmt.Errorf("%w: every node has failed, none is left to reach the barrier", ErrTooManyFailures)
	}
	return c.coord.Release(), nil
}

// flush sends each of nd's non-empty per-destination buffers in bufs as one
// kind message and empties its slot. Send would silently drop a buffer to a
// failed node, so that one goes back to the pool instead.
func (c *Cluster[V, A]) flush(nd *node[V, A], bufs [][]byte, kind netsim.Kind) {
	for dst, buf := range bufs {
		if len(buf) == 0 {
			continue
		}
		if c.net.Failed(dst) {
			c.pool.Put(buf)
		} else {
			c.net.Send(nd.id, dst, kind, buf)
		}
		bufs[dst] = nil
	}
}

// flushSendRound transmits every node's pending per-destination buffers with
// the given kind, then completes the messaging round and advances the clock
// by the slowest node's communication cost. Buffer ownership transfers to
// the network; the receive side returns payloads to the pool after decode.
func (c *Cluster[V, A]) flushSendRound(kind netsim.Kind) float64 {
	c.flushKind = kind
	c.runPhase(c.fns.flushSend)
	return c.finishRound()
}

// flushNoticeRound transmits the staged activation notices as their own
// messaging round.
func (c *Cluster[V, A]) flushNoticeRound() float64 {
	c.runPhase(c.fns.flushNotice)
	return c.finishRound()
}

func (c *Cluster[V, A]) finishRound() float64 {
	costs, fabric := c.net.FinishRound()
	var span costmodel.Span
	span.Observe(fabric)
	for _, cost := range costs {
		span.Observe(cost)
	}
	c.clock.Advance(span.Max())
	return span.Max()
}

// recycleMsgs returns a received round's payloads to the buffer pool.
// Delivery hands payload ownership to the receiver, and every decode path
// copies what it keeps, so the buffers are dead once decoded.
func (c *Cluster[V, A]) recycleMsgs(msgs []netsim.Message) {
	for i := range msgs {
		if cap(msgs[i].Payload) > 0 {
			c.pool.Put(msgs[i].Payload)
		}
		msgs[i].Payload = nil
	}
}

// recSink is where one staging loop's recovery records go: bufs are the
// per-destination buffers (a node's send or notice buffers),
// and met counts the records as recovery traffic unless it is nil.
// stageExact runs a loop over it twice; a loop that changes state as it
// stages, and so cannot run twice, fills a sink from stageFill once.
type recSink struct {
	bufs [][]byte
	met  *metrics.Node
	pool *bufpool.Pool
	// need sums each destination's bytes on the count pass; nil on the fill
	// pass.
	need []int
}

// put stages one record of size bytes for dst: the count pass adds size,
// the fill pass appends the record with encode to dst's buffer, seeded
// from the pool when empty.
func (s *recSink) put(dst, size int, encode func(buf []byte) []byte) {
	if s.need != nil {
		s.need[dst] += size
		return
	}
	if s.bufs[dst] == nil {
		s.bufs[dst] = s.pool.Get()
	}
	before := len(s.bufs[dst])
	s.bufs[dst] = encode(s.bufs[dst])
	if s.met != nil {
		s.met.RecoveryMsgs++
		s.met.RecoveryBytes += int64(len(s.bufs[dst]) - before)
	}
}

// stageExact runs the staging loop stage twice over bufs: a count pass that
// only sums each destination's bytes, then, every destination buffer grown
// once to fit (seeded from the pool when empty), the pass that appends the
// records. So a staging buffer is allocated once, at its final size, instead
// of regrowing as records land. stage must put the same records both times.
func (c *Cluster[V, A]) stageExact(bufs [][]byte, met *metrics.Node, stage func(s *recSink)) {
	s := &recSink{bufs: bufs, met: met, pool: c.pool, need: make([]int, len(bufs))}
	stage(s)
	for dst, n := range s.need {
		if n > 0 {
			if bufs[dst] == nil {
				bufs[dst] = c.pool.Get()
			}
			bufs[dst] = slices.Grow(bufs[dst], n)
		}
	}
	s.need = nil
	stage(s)
}

// stageFill returns a fill-only sink over bufs: each put appends its record
// at once, for staging loops that cannot run twice.
func (c *Cluster[V, A]) stageFill(bufs [][]byte, met *metrics.Node) *recSink {
	return &recSink{bufs: bufs, met: met, pool: c.pool}
}

// exchange completes one recovery round. It flushes the staged round (the
// notice buffers when notice is set), has every alive node receive its
// messages and decode them record by record with apply, and recycles the
// payloads. apply reads one whole record from r and changes nothing once
// r.err is set. A truncated or malformed payload ends its receiver's decode
// and fails the round: exchange returns the lowest receiving node's error.
func (c *Cluster[V, A]) exchange(notice bool, apply func(nd *node[V, A], from int, r *reader)) error {
	return c.receiveRound(notice, func(nd *node[V, A], msgs []netsim.Message) error {
		for _, m := range msgs {
			r := &reader{buf: m.Payload}
			for r.remaining() > 0 && r.err == nil {
				apply(nd, m.From, r)
			}
			if r.err != nil {
				return r.err
			}
		}
		return nil
	})
}

// exchangeRecords is exchange for a round of recovery records: every
// receiver decodes its whole round at once (decodeRecords), so it can size
// what the records add before apply places them. placed says the records
// land at their positions in the receiver's slot table. A malformed payload,
// or a placed record outside that table, fails the round with no record
// applied on its receiver.
func (c *Cluster[V, A]) exchangeRecords(placed bool, apply func(nd *node[V, A], recs []recoveryRecord[V])) error {
	return c.receiveRound(false, func(nd *node[V, A], msgs []netsim.Message) error {
		slots := -1
		if placed {
			slots = len(nd.hot)
		}
		recs, err := decodeRecords(msgs, c.vc, slots)
		if err == nil {
			apply(nd, recs)
		}
		return err
	})
}

// receiveRound is the frame of exchange and exchangeRecords: flush the
// round, hand each alive node its messages, recycle the payloads and return
// the lowest receiving node's decode error.
func (c *Cluster[V, A]) receiveRound(notice bool, recv func(nd *node[V, A], msgs []netsim.Message) error) error {
	if notice {
		c.flushNoticeRound()
	} else {
		c.flushSendRound(netsim.KindRecovery)
	}
	errs := make([]error, c.cfg.NumNodes)
	c.runPhase(func(nd *node[V, A]) {
		msgs := c.net.Receive(nd.id)
		if err := recv(nd, msgs); err != nil {
			errs[nd.id] = fmt.Errorf("core: recovery decode on node %d: %w", nd.id, err)
		}
		c.recycleMsgs(msgs)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// commit installs all staged state on every alive node: pending values,
// scatter flags and the next superstep's active set (Algorithm 1 line 14).
func (c *Cluster[V, A]) commit(iter int) {
	c.curIter = iter
	c.runPhase(c.fns.commit)
}

// rollback discards staged state and undelivered messages on every alive
// node (Algorithm 1 line 9: the iteration will re-execute). Staged buffers
// go back to the pool, and so do the superstep log's captured messages.
func (c *Cluster[V, A]) rollback() {
	c.runPhase(c.fns.rollback)
	if c.flog != nil {
		c.flogRollback()
	}
}

// Run executes the job to MaxIter supersteps, applying the chaos schedule
// and recovering per the configured strategy.
func (c *Cluster[V, A]) Run() (*Result[V], error) {
	defer c.stopWorkers()
	if len(c.cfg.Chaos) > 0 && c.chaos == nil {
		c.chaos = newChaosRuntime(c.cfg.Chaos)
	}
	if c.trace == nil {
		c.trace = make([]TraceEvent, 0, c.cfg.MaxIter+4)
	}

	for c.iter < c.cfg.MaxIter {
		iter := c.iter
		c.curIter = iter
		c.serveFrontier(iter + 1)
		c.chaosIterStart(iter)

		start := c.clock.Now()
		c.superstep(iter)
		if err := c.net.Err(); err != nil {
			return nil, fmt.Errorf("core: transport: %w", err)
		}
		c.chaosPartitionSilence()
		state, err := c.barrier()
		if err != nil {
			return nil, err
		}
		c.clock.Advance(c.cfg.Cost.BarrierOverhead)
		if state.IsFail() {
			c.rollback()
			if err := c.recover(state.Failed, iter); err != nil {
				return nil, err
			}
			continue // re-execute the iteration
		}
		c.commit(iter)
		c.emit(TraceIteration, iter, start)
		c.iter++
		c.servePublish()

		c.persistSuperstep()

		c.chaosCrashAt(iter, FailAfterBarrier)
		if state, err = c.barrier(); err != nil {
			return nil, err
		}
		if state.IsFail() {
			if err := c.recover(state.Failed, c.iter); err != nil {
				return nil, err
			}
		}
	}
	return c.result(), nil
}

// superstep runs one superstep of Algorithm 1 under either engine, as the
// rounds of the GAS message structure Cyclops edge-cut and PowerLyra
// vertex-cut share:
//
//	R1  activation broadcast (vertex-cut, skipped for always-active
//	    programs): masters tell replica hosts which vertices gather;
//	R2  gather: vertex-cut nodes partial-gather over their local in-edges
//	    and ship the accumulators to masters, which merge them (ascending
//	    node order) and apply. An edge-cut master holds all its in-edges,
//	    so it gathers and applies in one local compute phase;
//	R3  sync: masters broadcast new values + scatter flags to replicas,
//	    which stage them and mark their local out-targets;
//	R4  activation notices (vertex-cut): nodes forward scatter activations
//	    to the masters of the activated vertices. An edge-cut edge lives on
//	    its target's master, so activation there is local.
//
// All phases run through pre-bound functions (bindPhases), so the
// steady-state loop allocates nothing; the vertex-cut gather scratch
// (localPart/mergedPart) is retained on the node and cleared per superstep.
func (c *Cluster[V, A]) superstep(iter int) {
	c.curIter = iter
	vertexCut := c.cfg.Mode == VertexCutMode
	if vertexCut {
		if !c.always {
			c.runPhase(c.fns.vcR1Stage)
			c.flushSendRound(netsim.KindActivation)
			c.runPhase(c.fns.vcR1Recv)
		}
		c.runPhase(c.fns.vcGather)
		c.advanceComputeSpan()
		c.flushSendRound(netsim.KindGather)
		c.runPhase(c.fns.vcMerge)
	} else {
		c.runPhase(c.fns.ecCompute) // Algorithm 1 line 5
	}
	c.advanceComputeSpan()

	// R3 (line 6) stages in its own phase, after every node's merge: a
	// node's sync buffers to m are the gather buffers m hands back to
	// their wire slot in its merge.
	c.runPhase(c.fns.syncStage)
	c.flushSendRound(netsim.KindSync)
	c.runPhase(c.fns.syncRecv)

	if vertexCut {
		c.flushNoticeRound()
		c.runPhase(c.fns.vcNotice)
	}
}

// recover runs recovery passes of the configured kind over the failed set,
// restarting when additional failures strike during recovery (§5.3.2).
func (c *Cluster[V, A]) recover(failed []int, iter int) error {
	pending := append([]int(nil), failed...)
	for attempt := 0; ; attempt++ {
		if attempt > 2*c.cfg.NumNodes {
			return fmt.Errorf("%w: recovery restarted too many times", ErrTooManyFailures)
		}
		more, err := c.recoverPass(c.cfg.Recovery, pending, iter)
		if c.cfg.RebirthFallback && errors.Is(err, ErrNoStandby) {
			// Standby pool is dry: migrate the lost slots onto the survivors
			// instead of failing the job (§5.2 as fallback). A slot holding
			// the newbie of an interrupted Rebirth is lost too: Migration
			// promotes the survivors' mirrors of its vertices, so the slot
			// must be dead and empty, not half-built, and no member: its
			// failure is this recovery's, so it leaves without a new one.
			for _, f := range pending {
				if c.nodes[f].alive {
					c.nodes[f] = &node[V, A]{id: f, met: &c.met.Nodes[f]}
					c.net.SetFailed(f, true)
					c.coord.Leave(f)
					c.aliveDirty = true
				}
			}
			more, err = c.recoverPass(RecoverMigration, pending, iter)
			if err == nil && len(more) == 0 {
				c.recoveries[len(c.recoveries)-1].Fallback = true
			}
		}
		if err != nil {
			return err
		}
		if len(more) == 0 {
			// Recovery reshaped the master directory and replica tables;
			// republish the routing view so queries stop falling back from
			// the old master locations.
			c.serveRefreshRoute()
			return nil
		}
		for _, n := range more {
			if !slices.Contains(pending, n) {
				pending = append(pending, n)
			}
		}
	}
}

// SetRecoveryHook installs an observer called with each recovery phase label
// (RecoveryPhaseLabels) as a pass announces it, after any chaos
// crash-during-recovery event keyed on the label has fired.
func (c *Cluster[V, A]) SetRecoveryHook(fn func(phase string)) { c.testHook = fn }
