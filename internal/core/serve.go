package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"imitator/internal/graph"
	"imitator/internal/metrics"
)

// This file is the serving layer's epoch-consistent read seam. The engine
// publishes a snapshot of the committed vertex values after each superstep's
// global barrier (and only then), immutable while a reader pins it, so
// concurrent readers never observe a torn superstep: staged pendingValue
// state, rollback, and checkpoint replay all happen strictly between
// publishes. Queries are a host-side read path — they advance no simulated
// time and touch no wire buffers, so enabling Serve leaves sim_seconds and
// msg_bytes bit-identical.
//
// Staleness contract: the frontier is the superstep the engine is currently
// executing (in epochs, where epoch N = "N supersteps committed"). An
// answer's staleness is frontier - Epoch: 0 when the engine is idle or
// converged, and at most 1 while a superstep or a recovery pass is in
// flight — recovery re-executes the in-flight superstep, so the frontier
// does not advance during rebirth/migration and serving continues from the
// last committed epoch instead of blocking.

// ServeConfig controls the live-query serving layer (Config.Serve).
type ServeConfig struct {
	// Enabled keeps an epoch-stamped snapshot of committed vertex values
	// published for concurrent Query calls. Requires a program whose vertex
	// value is float64 or int32 (PageRank, SSSP, CD). Serving is host-side
	// only: simulated time and message bytes are unchanged.
	Enabled bool
	// KeepHistory retains every published value snapshot, indexed by epoch
	// (EpochValues). Validation harnesses use it as per-epoch ground truth;
	// costs one []float64 per published epoch, since a retained snapshot is
	// never refilled for a later one.
	KeepHistory bool
}

// QueryKind selects what a Query asks for.
type QueryKind uint8

// Query kinds.
const (
	// QueryValue asks for one vertex's committed value (PageRank rank,
	// SSSP distance, ...).
	QueryValue QueryKind = iota + 1
	// QueryTopK asks for the K highest-valued vertices.
	QueryTopK
	// QueryNeighbors asks for a vertex's out-neighborhood (capped at K
	// entries when K > 0).
	QueryNeighbors
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case QueryValue:
		return "value"
	case QueryTopK:
		return "topk"
	case QueryNeighbors:
		return "neighbors"
	default:
		return fmt.Sprintf("query(%d)", int(k))
	}
}

// Query is one read request against a serving cluster.
type Query struct {
	Kind   QueryKind
	Vertex graph.VertexID // QueryValue, QueryNeighbors
	// K is the result-size parameter: required >= 1 for QueryTopK, and an
	// optional cap for QueryNeighbors (0 = full neighborhood).
	K int
}

// RankEntry is one QueryTopK result row.
type RankEntry struct {
	Vertex graph.VertexID
	Value  float64
}

// Answer is the epoch-stamped response to a Query.
type Answer struct {
	Kind   QueryKind
	Vertex graph.VertexID

	// Value is the committed scalar at Epoch (QueryValue).
	Value float64
	// TopK holds the K highest-valued vertices at Epoch, descending, ties
	// broken by ascending vertex id (QueryTopK).
	TopK []RankEntry
	// Neighbors is the vertex's out-neighborhood (QueryNeighbors).
	Neighbors []graph.VertexID

	// Epoch is the number of committed supersteps the answered snapshot
	// reflects; Frontier is the superstep the engine was executing when the
	// answer was read. Frontier - Epoch is the answer's staleness.
	Epoch    int
	Frontier int

	// Node is the simulated node that served the read: the vertex's master,
	// or — when the master is dead or suspected — a surviving replica host
	// (FromReplica). -1 for aggregate answers with no single home (TopK).
	Node        int
	FromReplica bool
}

// Staleness returns the answer's epoch lag behind the engine's frontier.
func (a Answer) Staleness() int { return a.Frontier - a.Epoch }

// Serving errors.
var (
	// ErrServeDisabled reports a Query against a cluster whose
	// Config.Serve.Enabled is false.
	ErrServeDisabled = errors.New("core: serving disabled (set Config.Serve.Enabled)")
	// ErrBadQuery reports a malformed query (unknown kind, K < 1 for TopK).
	ErrBadQuery = errors.New("core: bad query")
	// ErrUnknownVertex reports a vertex id outside the loaded graph.
	ErrUnknownVertex = errors.New("core: unknown vertex")
	// ErrStaleRead is never returned: a snapshot is published after every
	// commit, so no answer lags the frontier by more than one epoch, and
	// there is no staleness bound left to refuse against. It stays so
	// callers that match on it keep compiling.
	ErrStaleRead = errors.New("core: stale read")
	// ErrVertexUnavailable reports that no live, unsuspected node holds
	// synced state for the vertex — its master is down and its surviving
	// replicas are FT-only replicas of a selfish vertex, which the §4.4
	// optimization never syncs.
	ErrVertexUnavailable = errors.New("core: vertex unavailable")
)

// serveSnapshot is one published epoch. It is immutable while it is current
// or pinned: a reader pins it (serveState.pin) before reading epoch and
// vals, and the engine refills it for a later epoch only once it has been
// replaced and every pin is released.
type serveSnapshot struct {
	epoch int64
	vals  []float64
	pins  atomic.Int32
}

// serveRetiredCap bounds the retired list. A replaced snapshot that finds
// the list full is left to the collector, pinned or not; it takes more
// long-lived concurrent readers than that for a publish to allocate.
const serveRetiredCap = 4

// serveRoute is the published routing view: where each vertex's master
// lives and which hosts hold replicas (flattened, in replica-rank order).
// Built after load and rebuilt after a recovery that moved masters
// (Migration); liveness and suspicion are checked against the coordinator at
// query time, so a stale view between rebuilds only ever routes away from
// more nodes, never onto a dead one.
type serveRoute struct {
	masterLoc []int16
	start     []int32
	hosts     []int16
	ftOnly    []bool
}

// serveState is the cluster's serving runtime. The engine goroutine is the
// only writer (publishes happen at barrier-committed points); queries run
// on arbitrary goroutines and read exclusively through the atomic pointers
// and counters, pinning the snapshot they read.
type serveState[V any] struct {
	cfg    ServeConfig
	scalar func(*V) float64

	snap     atomic.Pointer[serveSnapshot]
	route    atomic.Pointer[serveRoute]
	frontier atomic.Int64

	queries      atomic.Int64
	fromReplica  atomic.Int64
	unavailable  atomic.Int64
	maxStaleness atomic.Int64

	// retired holds replaced snapshots, oldest first, for the next publish
	// to refill once unpinned. Only the engine goroutine touches it, and
	// KeepHistory snapshots never join it.
	retired []*serveSnapshot

	// mu guards the KeepHistory trajectory (engine appends, harnesses read).
	mu         sync.Mutex
	histEpochs []int
	hist       [][]float64
}

// pin returns the current snapshot with a reference held, or nil before the
// first publish. The second load closes the window in which the engine
// replaced and refilled the snapshot between the first load and the pin: a
// snapshot still current after the pin is one the engine will not refill
// until unpin. Epoch and values are read only from the pinned snapshot.
func (s *serveState[V]) pin() *serveSnapshot {
	for {
		snap := s.snap.Load()
		if snap == nil {
			return nil
		}
		snap.pins.Add(1)
		if s.snap.Load() == snap {
			return snap
		}
		snap.pins.Add(-1)
	}
}

// recycled returns a snapshot to refill for the next epoch: the oldest
// retired one with no pins, or a new one when every retired snapshot is
// pinned or none is retired yet.
func (s *serveState[V]) recycled(n int) *serveSnapshot {
	for i, r := range s.retired {
		if r.pins.Load() == 0 {
			s.retired = slices.Delete(s.retired, i, i+1)
			return r
		}
	}
	return &serveSnapshot{vals: make([]float64, n)}
}

// serveScalar resolves V's scalar projection once per cluster; the
// per-entry extraction is a pointer interface assertion (no boxing).
func serveScalar[V any]() (func(*V) float64, bool) {
	var z V
	switch any(&z).(type) {
	case *float64:
		return func(p *V) float64 { return *any(p).(*float64) }, true
	case *int32:
		return func(p *V) float64 { return float64(*any(p).(*int32)) }, true
	default:
		return nil, false
	}
}

// serveInit builds the serving runtime and publishes the post-load epoch-0
// snapshot. Called from NewCluster after load succeeds.
func (c *Cluster[V, A]) serveInit() error {
	scalar, ok := serveScalar[V]()
	if !ok {
		var z V
		return fmt.Errorf("core: Serve.Enabled requires a float64 or int32 vertex value, got %T", z)
	}
	c.serve = &serveState[V]{cfg: c.cfg.Serve, scalar: scalar}
	c.servePublish()
	c.serveRefreshRoute()
	return nil
}

// serveFrontier advances the published frontier to epoch f (monotonic);
// the run loop calls it with iter+1 when it starts executing superstep
// iter. Readers see staleness frontier - snapshot epoch.
func (c *Cluster[V, A]) serveFrontier(f int) {
	if c.serve == nil {
		return
	}
	if int64(f) > c.serve.frontier.Load() {
		c.serve.frontier.Store(int64(f))
	}
}

// servePublish snapshots the committed master values at the current epoch
// (c.iter = supersteps committed), after load and after every commit, into
// a recycled snapshot: once a snapshot has been replaced and released, a
// publish allocates nothing. Publishes are monotonic in epoch: a
// checkpoint-recovery replay re-commits earlier iterations without
// regressing the served view.
func (c *Cluster[V, A]) servePublish() {
	s := c.serve
	if s == nil {
		return
	}
	epoch := int64(c.iter)
	if cur := s.snap.Load(); cur != nil && cur.epoch >= epoch {
		return
	}
	next := s.recycled(c.g.NumVertices())
	next.epoch = epoch
	for _, nd := range c.aliveNodes() {
		for i := range nd.hot {
			if e := &nd.hot[i]; e.isMaster() {
				next.vals[e.id] = s.scalar(&e.value)
			}
		}
	}
	old := s.snap.Swap(next)
	if epoch > s.frontier.Load() {
		s.frontier.Store(epoch)
	}
	if s.cfg.KeepHistory {
		s.mu.Lock()
		s.histEpochs = append(s.histEpochs, int(epoch))
		s.hist = append(s.hist, next.vals)
		s.mu.Unlock()
	} else if old != nil && len(s.retired) < serveRetiredCap {
		s.retired = append(s.retired, old)
	}
}

// serveRefreshRoute republishes the routing view from the current master
// directory and replica tables. Called after load and after a recovery that
// ran Migration, the one pass that moves masters and reshapes the tables:
// rebirth, checkpoint rebuild and logged replay recreate every failed slot
// where it was (TestServeRouteAfterRecovery).
func (c *Cluster[V, A]) serveRefreshRoute() {
	s := c.serve
	if s == nil {
		return
	}
	nv := c.g.NumVertices()
	start := make([]int32, nv+1)
	for _, nd := range c.aliveNodes() {
		for i := range nd.hot {
			if e := &nd.hot[i]; e.isMaster() {
				start[int(e.id)+1] = int32(len(nd.replicas(int32(i)).nodes))
			}
		}
	}
	for v := 0; v < nv; v++ {
		start[v+1] += start[v]
	}
	total := int(start[nv])
	rv := &serveRoute{
		masterLoc: append([]int16(nil), c.masterLoc...),
		start:     start,
		hosts:     make([]int16, total),
		ftOnly:    make([]bool, total),
	}
	for _, nd := range c.aliveNodes() {
		for i := range nd.hot {
			e := &nd.hot[i]
			if !e.isMaster() {
				continue
			}
			base, rt := start[e.id], nd.replicas(int32(i))
			copy(rv.hosts[base:], rt.nodes)
			copy(rv.ftOnly[base:], rt.ftOnly)
		}
	}
	s.route.Store(rv)
}

// serveRouteFor picks the node to serve vertex v: its master when alive and
// unsuspected, otherwise the first live, unsuspected replica host in rank
// order. FT-only replicas of selfish vertices are skipped when the §4.4
// optimization is on — they were never synced and hold no current value.
func (c *Cluster[V, A]) serveRouteFor(rv *serveRoute, v graph.VertexID) (node int, fromReplica, ok bool) {
	mn := int(rv.masterLoc[v])
	if mn >= 0 && c.coord.Alive(mn) && !c.coord.Suspected(mn) {
		return mn, false, true
	}
	selfish := c.selfishOptOn && c.g.IsSelfish(v)
	for k := rv.start[v]; k < rv.start[int(v)+1]; k++ {
		h := int(rv.hosts[k])
		if h == mn || !c.coord.Alive(h) || c.coord.Suspected(h) {
			continue
		}
		if rv.ftOnly[k] && selfish {
			continue
		}
		return h, true, true
	}
	return -1, false, false
}

// serveAggregator picks the lowest live, unsuspected node for aggregate
// answers (TopK), or -1 when none qualifies.
func (c *Cluster[V, A]) serveAggregator() int {
	for id := 0; id < c.cfg.NumNodes; id++ {
		if c.coord.Alive(id) && !c.coord.Suspected(id) {
			return id
		}
	}
	return -1
}

// Query answers one read from the last published epoch-consistent
// snapshot. Safe for concurrent use from any goroutine while the engine
// runs (and after Run returns); it never blocks on the superstep loop.
func (c *Cluster[V, A]) Query(q Query) (Answer, error) {
	s := c.serve
	if s == nil {
		return Answer{}, ErrServeDisabled
	}
	// Read the frontier BEFORE the snapshot: a concurrent commit between
	// the two loads then only makes the snapshot newer than the frontier
	// (clamped below), never spuriously staler.
	frontier := s.frontier.Load()
	snap := s.pin()
	if snap == nil {
		return Answer{}, ErrServeDisabled
	}
	defer snap.pins.Add(-1)
	rv := s.route.Load()
	if rv == nil {
		return Answer{}, ErrServeDisabled
	}
	s.queries.Add(1)

	if frontier < snap.epoch {
		frontier = snap.epoch
	}
	stale := frontier - snap.epoch
	for {
		m := s.maxStaleness.Load()
		if stale <= m || s.maxStaleness.CompareAndSwap(m, stale) {
			break
		}
	}

	ans := Answer{
		Kind:     q.Kind,
		Vertex:   q.Vertex,
		Epoch:    int(snap.epoch),
		Frontier: int(frontier),
		Node:     -1,
	}
	switch q.Kind {
	case QueryValue, QueryNeighbors:
		v := q.Vertex
		if int64(v) >= int64(len(rv.masterLoc)) {
			return Answer{}, fmt.Errorf("%w: vertex %d outside [0, %d)", ErrUnknownVertex, v, len(rv.masterLoc))
		}
		node, fromReplica, ok := c.serveRouteFor(rv, v)
		if !ok {
			s.unavailable.Add(1)
			return Answer{}, fmt.Errorf("%w: vertex %d has no live synced replica", ErrVertexUnavailable, v)
		}
		ans.Node, ans.FromReplica = node, fromReplica
		if fromReplica {
			s.fromReplica.Add(1)
		}
		if q.Kind == QueryValue {
			ans.Value = snap.vals[v]
		} else {
			limit := q.K
			if limit <= 0 || limit > c.g.OutDegree(v) {
				limit = c.g.OutDegree(v)
			}
			ans.Neighbors = make([]graph.VertexID, 0, limit)
			c.g.OutEdges(v, func(_ int, e graph.Edge) {
				if len(ans.Neighbors) < limit {
					ans.Neighbors = append(ans.Neighbors, e.Dst)
				}
			})
		}
	case QueryTopK:
		if q.K < 1 {
			return Answer{}, fmt.Errorf("%w: top-k needs K >= 1, got %d", ErrBadQuery, q.K)
		}
		ans.TopK = topRanks(snap.vals, q.K)
		ans.Node = c.serveAggregator()
	default:
		return Answer{}, fmt.Errorf("%w: unknown kind %d", ErrBadQuery, int(q.Kind))
	}
	return ans, nil
}

// rankBetter orders descending by value, ascending by id on ties.
func rankBetter(a, b RankEntry) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Vertex < b.Vertex
}

// topRanks selects the K best entries of vals (O(V log K)).
func topRanks(vals []float64, k int) []RankEntry {
	if k > len(vals) {
		k = len(vals)
	}
	top := make([]RankEntry, 0, k)
	for v, val := range vals {
		e := RankEntry{Vertex: graph.VertexID(v), Value: val}
		if len(top) == k {
			if !rankBetter(e, top[k-1]) {
				continue
			}
			top = top[:k-1]
		}
		i := sort.Search(len(top), func(i int) bool { return !rankBetter(top[i], e) })
		top = append(top, RankEntry{})
		copy(top[i+1:], top[i:])
		top[i] = e
	}
	return top
}

// ServeStats returns the serving counters so far, or nil when serving is
// disabled.
func (c *Cluster[V, A]) ServeStats() *metrics.Serve {
	s := c.serve
	if s == nil {
		return nil
	}
	return &metrics.Serve{
		Queries:      s.queries.Load(),
		FromReplica:  s.fromReplica.Load(),
		Unavailable:  s.unavailable.Load(),
		MaxStaleness: s.maxStaleness.Load(),
	}
}

// PublishedEpochs returns the epochs retained by Serve.KeepHistory, in
// publish order.
func (c *Cluster[V, A]) PublishedEpochs() []int {
	s := c.serve
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.histEpochs...)
}

// EpochValues returns the scalar values published at the given epoch when
// Serve.KeepHistory retained them, or nil. The returned slice is the
// published snapshot itself, which a KeepHistory run never refills: callers
// must not mutate it.
func (c *Cluster[V, A]) EpochValues(epoch int) []float64 {
	s := c.serve
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range s.histEpochs {
		if e == epoch {
			return s.hist[i]
		}
	}
	return nil
}
