package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"imitator/internal/graph"
	"imitator/internal/hostpar"
	"imitator/internal/partition"
)

// loadMinBlock is the smallest per-goroutine vertex block in the parallel
// load phases.
const loadMinBlock = 1 << 13

// vertexPresence records where one vertex's replicas live (master node
// excluded) and which of them exist only for fault tolerance.
type vertexPresence struct {
	nodes  []int16
	ftOnly []bool
	// mirrors lists indexes into nodes designating the K mirrors, in rank
	// order.
	mirrors []int16
}

// presences holds every vertex's vertexPresence in one arena per field:
// vertex v's lists are nodes[end[v]:end[v+1]] (ftOnly alike) and
// mirrors[mEnd[v]:mEnd[v+1]]. Load copies them into the replica tables in
// the nodes' table arenas and then drops them.
type presences struct {
	end, mEnd []int32
	nodes     []int16
	ftOnly    []bool
	mirrors   []int16
}

// of returns vertex v's lists, each with cap == len; mirrors is nil until
// mirror selection has sized it.
func (ps *presences) of(v int) vertexPresence {
	lo, hi := ps.end[v], ps.end[v+1]
	pr := vertexPresence{nodes: ps.nodes[lo:hi:hi], ftOnly: ps.ftOnly[lo:hi:hi]}
	if ps.mEnd != nil {
		lo, hi = ps.mEnd[v], ps.mEnd[v+1]
		pr.mirrors = ps.mirrors[lo:hi:hi]
	}
	return pr
}

// load partitions the graph, extends replication for fault tolerance (§4.1),
// selects mirrors (§4.2), builds every node's vertex array and topology,
// initializes values, and writes edge-ckpt files and checkpoint metadata.
func (c *Cluster[V, A]) load() error {
	numV := c.g.NumVertices()
	p := c.cfg.NumNodes

	// 1. Partition.
	c.masterLoc = make([]int16, numV)
	var err error
	switch c.cfg.Partitioner {
	case PartHash:
		c.ec, err = partition.HashEdgeCut(c.g, p)
	case PartFennel:
		c.ec, err = partition.FennelEdgeCut(c.g, p)
	case PartLDG:
		c.ec, err = partition.LDGEdgeCut(c.g, p)
	case PartOblivious:
		c.vcut, err = partition.ObliviousVertexCut(c.g, p)
	case PartRandom:
		c.vcut, err = partition.RandomVertexCut(c.g, p)
	case PartGrid:
		c.vcut, err = partition.GridVertexCut(c.g, p)
	case PartHybrid:
		c.vcut, err = partition.HybridVertexCut(c.g, p, partition.DefaultHybridCutConfig())
	default:
		return fmt.Errorf("core: unknown partitioner %v", c.cfg.Partitioner)
	}
	if err != nil {
		return err
	}
	width := c.cfg.hostParallelism()
	hostpar.Blocks(numV, loadMinBlock, width, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if c.ec != nil {
				c.masterLoc[v] = int16(c.ec.Owner[v])
			} else {
				c.masterLoc[v] = int16(c.vcut.Master[v])
			}
		}
	})

	// 2. Computation-replica presence per vertex: the distinct hosts of its
	// edges other than its master. Sharded over the vertex that OWNS the
	// presence list, so blocks are write-disjoint. A count pass sizes every
	// list — its distinct hosts plus the FT replicas step 3 adds, which bring
	// it to min(K, p-1) — and a fill pass writes the hosts into one arena per
	// element type, leaving the FT slots noNode. Per-vertex fill order differs
	// from the sequential edge sweep, but sortByNode canonicalizes the lists
	// (hosts are unique), so the post-sort presence tables are identical for
	// any worker count.
	ps := &presences{end: make([]int32, numV+1)}
	hostpar.Blocks(numV, loadMinBlock, width, func(lo, hi int) {
		seen := make([]int32, p)
		for v := lo; v < hi; v++ {
			n := 0
			c.eachPresence(v, seen, func(int16) { n++ })
			if c.cfg.replicates() {
				n = max(n, min(c.cfg.FT.K, p-1))
			}
			ps.end[v+1] = int32(n)
		}
	})
	for v := 0; v < numV; v++ {
		ps.end[v+1] += ps.end[v]
	}
	ps.nodes, ps.ftOnly = make([]int16, ps.end[numV]), make([]bool, ps.end[numV])
	hostpar.Blocks(numV, loadMinBlock, width, func(lo, hi int) {
		seen := make([]int32, p)
		for v := lo; v < hi; v++ {
			nodes, k := ps.of(v).nodes, 0
			c.eachPresence(v, seen, func(h int16) {
				nodes[k] = h
				k++
			})
			for ; k < len(nodes); k++ {
				nodes[k] = noNode
			}
		}
	})

	// 3. Fault-tolerant replicas (§4.1): guarantee >= K replicas per vertex,
	// placed greedily on the nodes with the fewest replicas so far. Every
	// slot step 2 left noNode gets a host: a list shorter than p-1 always has
	// a candidate.
	replicaLoad := make([]int, p)
	for _, n := range ps.nodes {
		if n != noNode {
			replicaLoad[n]++
		}
	}
	for v := 0; v < numV; v++ {
		pr := ps.of(v)
		for j := range pr.nodes {
			if pr.nodes[j] != noNode {
				continue
			}
			best := -1
			for n := 0; n < p; n++ {
				if int16(n) == c.masterLoc[v] || pr.has(int16(n)) {
					continue
				}
				if best < 0 || replicaLoad[n] < replicaLoad[best] {
					best = n
				}
			}
			pr.nodes[j], pr.ftOnly[j] = int16(best), true
			replicaLoad[best]++
			c.extraReplicas++
			if c.g.IsSelfish(graph.VertexID(v)) {
				c.extraReplicasSelfish++
			}
		}
		pr.sortByNode()
	}

	// 4. Mirror selection (§4.2): FT replicas are always mirrors; remaining
	// ranks go to the replica whose host has the fewest mirrors so far.
	if c.cfg.replicates() {
		ps.mEnd = make([]int32, numV+1)
		for v := 0; v < numV; v++ {
			ps.mEnd[v+1] = ps.mEnd[v] + min(int32(c.cfg.FT.K), ps.end[v+1]-ps.end[v])
		}
		ps.mirrors = make([]int16, ps.mEnd[numV])
		mirrorCount := make([]int, p)
		chosen := make([]bool, p) // by replica index; one scratch for every vertex
		for v := 0; v < numV; v++ {
			pr := ps.of(v)
			mirrors := pr.mirrors[:0]
			clear(chosen[:len(pr.nodes)])
			for idx, ft := range pr.ftOnly {
				if len(mirrors) == cap(mirrors) {
					break
				}
				if ft {
					mirrors = append(mirrors, int16(idx))
					chosen[idx] = true
					mirrorCount[pr.nodes[idx]]++
				}
			}
			for len(mirrors) < cap(mirrors) {
				best := int16(-1)
				for idx := range pr.nodes {
					if chosen[idx] {
						continue
					}
					if c.cfg.FT.MirrorPlacement == MirrorFirst {
						best = int16(idx) // naive: first free replica wins
						break
					}
					if best < 0 || mirrorCount[pr.nodes[idx]] < mirrorCount[pr.nodes[best]] {
						best = int16(idx)
					}
				}
				mirrors = append(mirrors, best)
				chosen[best] = true
				mirrorCount[pr.nodes[best]]++
			}
		}
	}
	c.totalPresences = numV + len(ps.nodes)

	// 5. Build per-node vertex tables: masters first (ascending id), then
	// replicas (ascending id). Positions are the recovery addresses (§5.1.2).
	// Every slot gets its final role flags here, so each node can size its
	// role slabs and arenas before step 6 fills them in parallel. A count
	// pass sizes the tables; one sweep in ascending id then writes each
	// slot's id and roles through per-node cursors (next[n] for masters,
	// next[p+n] for replicas), and each node fills in the rest of its slots.
	next := make([]int32, 2*p)
	for v := 0; v < numV; v++ {
		next[c.masterLoc[v]]++
	}
	for _, n := range ps.nodes {
		next[p+int(n)]++
	}
	c.nodes = make([]*node[V, A], p)
	hostpar.For(p, width, func(n int) {
		slots := next[n] + next[p+n]
		c.nodes[n] = &node[V, A]{
			id:    n,
			alive: true,
			met:   &c.met.Nodes[n],
			index: newIndex(numV),
			hot:   make([]hot[V], slots),
			ref:   make([]slabRef, slots),
		}
	})
	for n := 0; n < p; n++ {
		next[p+n], next[n] = next[n], 0
	}
	for v := 0; v < numV; v++ {
		mn := c.masterLoc[v]
		c.nodes[mn].hot[next[mn]] = hot[V]{id: graph.VertexID(v), flags: flagMaster}
		next[mn]++
		pr := ps.of(v)
		for idx, n := range pr.nodes {
			c.nodes[n].hot[next[p+int(n)]] = hot[V]{id: graph.VertexID(v), flags: pr.rolesAt(idx)}
			next[p+int(n)]++
		}
	}
	hostpar.For(p, width, func(n int) {
		nd := c.nodes[n]
		for i := range nd.hot {
			e := &nd.hot[i]
			if c.g.IsSelfish(e.id) {
				e.flags |= flagSelfish
			}
			e.masterNode = c.masterLoc[e.id]
			e.inDeg, e.outDeg = int32(c.g.InDegree(e.id)), int32(c.g.OutDegree(e.id))
			nd.index[e.id] = int32(i)
		}
		nd.allocSlabs()
		c.layoutArenas(nd, ps)
	})
	for _, nd := range c.nodes {
		// initNodeScratch touches cluster-wide state (aliveDirty), so it
		// stays outside the parallel section.
		c.initNodeScratch(nd)
	}

	// 6. Fill master positions and the arenas. Sharded by vertex: every
	// write lands in vertex v's own slots and their arena ranges (its master
	// table, and each mirror's copy of it and, for edge-cut, of its in-edges
	// by global id, §4.2), which are disjoint across vertices; the indexes
	// and handles are read-only from here on.
	weighted := c.g.Weighted()
	hostpar.Blocks(numV, loadMinBlock, width, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			vid := graph.VertexID(v)
			mnd := c.nodes[c.masterLoc[v]]
			mpos := mnd.index[vid]
			mnd.hot[mpos].masterPos = mpos
			pr := ps.of(v)
			table := mnd.replicas(mpos)
			copy(table.nodes, pr.nodes)
			copy(table.ftOnly, pr.ftOnly)
			copy(table.mirrorOf, pr.mirrors)
			for i, rn := range pr.nodes {
				rpos := c.nodes[rn].index[vid]
				table.pos[i] = rpos
				c.nodes[rn].hot[rpos].masterPos = mpos
			}
			for _, idx := range pr.mirrors {
				rnd := c.nodes[pr.nodes[idx]]
				rm := rnd.mirror(table.pos[idx])
				mt := rnd.tables.at(rm.table)
				copy(mt.nodes, table.nodes)
				copy(mt.pos, table.pos)
				copy(mt.ftOnly, table.ftOnly)
				copy(mt.mirrorOf, table.mirrorOf)
				if c.ec != nil {
					ed := rnd.edges.at(rm.edges)
					for k, ei := range c.g.InEdgeIndexes(vid) {
						ed.src[k] = c.g.EdgeSrc(int(ei))
						if weighted {
							ed.wt[k] = c.g.EdgeWeight(int(ei))
						}
					}
				}
			}
		}
	})

	// 7. Local topology. A stable counting sort groups the canonical edge
	// indexes by owning node, then each node builds its CSR from its own
	// group: it counts every slot's degrees straight into the offsets, then
	// fills the arrays (no weights for an unweighted graph) in ascending
	// canonical order, i.e. exactly the order the sequential sweep used, so
	// every downstream floating-point reduction is bit-identical. Writes stay
	// inside the owning node's tables.
	{
		m := c.g.NumEdges()
		nodeOff := make([]int32, p+1)
		for i := range m {
			nodeOff[c.edgeOwner(i)+1]++
		}
		for n := 0; n < p; n++ {
			nodeOff[n+1] += nodeOff[n]
		}
		byNode := make([]int32, m)
		cursor := make([]int32, p)
		copy(cursor, nodeOff[:p])
		for i := range m {
			o := c.edgeOwner(i)
			byNode[cursor[o]] = int32(i)
			cursor[o]++
		}
		hostpar.For(p, width, func(n int) {
			nd := c.nodes[n]
			group := byNode[nodeOff[n]:nodeOff[n+1]]
			bd := newCSRBuilder(len(nd.hot), len(group), weighted)
			for _, ei := range group {
				bd.count(nd.index[c.g.EdgeSrc(int(ei))], nd.index[c.g.EdgeDst(int(ei))])
			}
			bd.open()
			for _, ei := range group {
				bd.put(nd.index[c.g.EdgeSrc(int(ei))], nd.index[c.g.EdgeDst(int(ei))], c.g.EdgeWeight(int(ei)))
			}
			nd.csr = bd.done()
		})
	}

	// 8. Initial values and activity (per-node slots are write-disjoint;
	// Program.Init is pure by the determinism rules).
	hostpar.For(p, width, func(n int) {
		nd := c.nodes[n]
		for i := range nd.hot {
			e := &nd.hot[i]
			val, act := c.prog.Init(e.id, e.info())
			e.value = val
			e.active = act || c.always
			e.lastActivateIter = -1
			e.lastTouchedIter = -1 // untouched: no logged delta carries it yet
		}
	})

	// 9. Edge-ckpt files for vertex-cut (§4.3): each node's local edges are
	// partitioned into per-recovery-node files on the DFS, keyed by the
	// node hosting the target's master (or its first mirror when the master
	// is local). Overlapped with loading in the paper; we account the cost
	// into loadSeconds.
	if c.vcut != nil && c.cfg.replicates() {
		c.writeEdgeCkpts()
	}

	// 10. Persistence setup: metadata snapshots + pristine retention, the
	// epoch-0 data snapshot (checkpointing), the log runtime (logged
	// recovery).
	c.persistLoad()

	// 11. Memory accounting.
	c.refreshMemoryMetrics()
	for _, nd := range c.nodes {
		c.coord.Set(fmt.Sprintf("arraylen/%d", nd.id), int64(len(nd.hot)))
	}
	return nil
}

// layoutArenas points nd's role-slab entries at their ranges in the arenas,
// laid out in slot order, and makes both arenas at their exact size: a
// vertex's replica table has a row per replica and a mirror index per
// mirror, and a mirror's copy of its master's in-edges (edge-cut) an entry
// per in-edge. An unweighted graph's edge arena stores no weights.
func (c *Cluster[V, A]) layoutArenas(nd *node[V, A], ps *presences) {
	var rows, edges int32
	for i, r := range nd.ref {
		if r.master == noSlab && r.mirror == noSlab {
			continue
		}
		v := nd.hot[i].id
		h := tableRef{off: rows, rows: uint16(ps.end[v+1] - ps.end[v])}
		if ps.mEnd != nil {
			h.mirrors = uint16(ps.mEnd[v+1] - ps.mEnd[v])
		}
		rows += int32(h.rows)
		if r.master != noSlab {
			nd.masters[r.master] = h
			continue
		}
		m := &nd.mirrors[r.mirror]
		m.table = h
		if c.ec != nil {
			m.edges = edgeRef{off: edges, n: int32(c.g.InDegree(v))}
			edges += m.edges.n
		}
	}
	nd.tables = replicaTable{make([]int16, rows), make([]int32, rows), make([]bool, rows), make([]int16, rows)}
	nd.edges = rawEdges{src: make([]graph.VertexID, edges)}
	if c.g.Weighted() {
		nd.edges.wt = make(weights, edges)
	}
}

// eachPresence calls fn once for each distinct node other than vertex v's
// master that holds one of v's edges: under edge-cut an out-edge replicates
// its source onto the node owning the destination's master; under vertex-cut
// both endpoints are present wherever the edge lives. seen is the calling
// goroutine's scratch of NumNodes stamps; v's stamp is v+1.
func (c *Cluster[V, A]) eachPresence(v int, seen []int32, fn func(n int16)) {
	stamp, vid := int32(v)+1, graph.VertexID(v)
	seen[c.masterLoc[v]] = stamp
	visit := func(n int16) {
		if seen[n] != stamp {
			seen[n] = stamp
			fn(n)
		}
	}
	for _, ei := range c.g.OutEdgeIndexes(vid) {
		visit(int16(c.edgeOwner(int(ei))))
	}
	if c.vcut != nil {
		for _, ei := range c.g.InEdgeIndexes(vid) {
			visit(int16(c.vcut.EdgeOwner[ei]))
		}
	}
}

// edgeOwner returns the node that stores edge i: under edge-cut the owner of
// its destination, under vertex-cut the partitioner's choice.
func (c *Cluster[V, A]) edgeOwner(i int) int32 {
	if c.ec != nil {
		return c.ec.Owner[c.g.EdgeDst(i)]
	}
	return c.vcut.EdgeOwner[i]
}

func (pr *vertexPresence) has(n int16) bool {
	for _, have := range pr.nodes {
		if have == n {
			return true
		}
	}
	return false
}

// rolesAt returns the FT-only and mirror flags of replica idx.
func (pr *vertexPresence) rolesAt(idx int) entryFlags {
	var f entryFlags
	if pr.ftOnly[idx] {
		f |= flagFTOnly
	}
	if slices.Contains(pr.mirrors, int16(idx)) {
		f |= flagMirror
	}
	return f
}

// sortByNode orders the presence table by host node (unique, and at most
// NumNodes-1 of them: an in-place insertion sort), keeping the parallel
// slices aligned; mirrors are selected afterwards, so only nodes/ftOnly
// need reordering.
func (pr *vertexPresence) sortByNode() {
	for i := 1; i < len(pr.nodes); i++ {
		n, ft := pr.nodes[i], pr.ftOnly[i]
		j := i
		for ; j > 0 && pr.nodes[j-1] > n; j-- {
			pr.nodes[j], pr.ftOnly[j] = pr.nodes[j-1], pr.ftOnly[j-1]
		}
		pr.nodes[j], pr.ftOnly[j] = n, ft
	}
}

// writeEdgeCkpts stores each node's local edges into per-recovery-node DFS
// files. A slot's in-edges all go to one file at 16 bytes an edge, so a count
// pass over every node sizes each (owner, target) file. The files are filled
// into capped sub-slices of one exact arena and handed to the DFS, which
// keeps them without a copy; the caps make a later Append (Migration's
// re-persist) reallocate instead of writing into the next file.
func (c *Cluster[V, A]) writeEdgeCkpts() {
	width := c.cfg.NumNodes
	size := make([]int, len(c.nodes)*width) // file (owner, target) at owner*width+target
	total := 0
	for _, nd := range c.nodes {
		for i := range nd.hot {
			if n := nd.inLen(i); n > 0 {
				size[nd.id*width+c.edgeCkptTarget(nd.hot[i].id, nd.id)] += n * 16
				total += n * 16
			}
		}
	}
	arena, files := make([]byte, total), make([][]byte, len(size))
	lo := 0
	for f, n := range size {
		files[f] = arena[lo : lo : lo+n]
		lo += n
	}
	for _, nd := range c.nodes {
		own := files[nd.id*width : (nd.id+1)*width]
		for i := range nd.hot {
			if nbr, wt := nd.in(i); len(nbr) > 0 {
				id := nd.hot[i].id
				k := c.edgeCkptTarget(id, nd.id)
				for j, src := range nbr {
					own[k] = appendEdgeCkpt(own[k], nd.hot[src].id, id, wt.at(j))
				}
			}
		}
		for k, buf := range own {
			if len(buf) > 0 {
				c.loadSeconds += c.dfsWriteCost(nd, edgeCkptPath(nd.id, k), buf)
			}
		}
	}
}

// edgeCkptTarget picks the recovery node for an edge targeting vertex dst
// stored on node `on`: the master-hosting node, or the first mirror's node
// when the master is local.
func (c *Cluster[V, A]) edgeCkptTarget(dst graph.VertexID, on int) int {
	mn := int(c.masterLoc[dst])
	if mn != on {
		return mn
	}
	if mp, ok := c.nodes[mn].pos(dst); ok {
		if rt := c.nodes[mn].replicas(mp); len(rt.mirrorOf) > 0 {
			return int(rt.nodes[rt.mirrorOf[0]])
		}
	}
	return (on + 1) % c.cfg.NumNodes
}

func edgeCkptPath(owner, target int) string {
	return fmt.Sprintf("edgeckpt/%d/%d", owner, target)
}

// dfsWriteCost writes data, which the DFS keeps, and returns simulated
// seconds, tracking metrics.
func (c *Cluster[V, A]) dfsWriteCost(nd *node[V, A], path string, data []byte) float64 {
	cost := c.dfs.Write(nd.id, path, data)
	nd.met.DFSWriteBytes += int64(len(data))
	return cost
}

// encodeMetadataSnapshot serializes a node's immutable graph topology into
// a fresh buffer: the entry table (ids, flags, degrees) and local in-edges.
// Checkpoint recovery reloads this to rebuild a crashed node. A count pass
// sizes the buffer exactly: 17 bytes a slot and 12 an in-edge after the
// 4-byte slot count.
func (c *Cluster[V, A]) encodeMetadataSnapshot(nd *node[V, A]) []byte {
	buf := make([]byte, 0, 4+17*len(nd.hot)+12*len(nd.inNbr))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nd.hot)))
	for i := range nd.hot {
		e := &nd.hot[i]
		nbr, wt := nd.in(i)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.id))
		buf = append(buf, byte(e.flags))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.inDeg))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.outDeg))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nbr)))
		for k, p := range nbr {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(wt.at(k)))
		}
	}
	return buf
}

// refreshMemoryMetrics recomputes the byte-exact per-node footprint.
func (c *Cluster[V, A]) refreshMemoryMetrics() {
	for _, nd := range c.nodes {
		if nd == nil {
			continue
		}
		var total int64
		for i := range nd.hot {
			total += nd.memoryBytes(i, c.vc.Size(nd.hot[i].value))
		}
		nd.met.MemoryBytes = total
	}
}
