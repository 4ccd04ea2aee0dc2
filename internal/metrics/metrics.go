// Package metrics collects the counters the paper's figures report:
// messages and bytes per category (Fig 8b, Table 6), DFS traffic (Fig 2),
// and byte-exact memory footprints (Tables 3 and 7).
package metrics

import "fmt"

// Node accumulates counters for one simulated node. Not safe for concurrent
// use; each node owns its Node and the cluster merges after barriers.
type Node struct {
	// Messages and bytes sent, split by purpose. Sync messages maintain
	// computation replicas; FT messages exist only because of fault
	// tolerance (syncs to FT replicas and mirror full-state extensions) —
	// the paper calls these "redundant messages" (Fig 8b).
	SyncMsgs  int64
	SyncBytes int64
	FTMsgs    int64
	FTBytes   int64
	// GatherMsgs/Bytes are vertex-cut partial-accumulator traffic.
	GatherMsgs  int64
	GatherBytes int64
	// ActivationMsgs/Bytes carry scatter activation notices.
	ActivationMsgs  int64
	ActivationBytes int64
	// RecoveryMsgs/Bytes flow during Rebirth/Migration.
	RecoveryMsgs  int64
	RecoveryBytes int64
	// DFS traffic.
	DFSReadBytes  int64
	DFSWriteBytes int64
	// MemoryBytes is the current footprint of graph state (vertex entries,
	// values, edges, replica metadata), maintained by the engine.
	MemoryBytes int64
	// ComputeSeconds is the simulated time this node spent in compute
	// phases (gather/apply, Rebirth placement), after the simulated worker
	// pool's speedup (Config.WorkersPerNode) has been applied.
	ComputeSeconds float64
}

// Add merges other into n.
func (n *Node) Add(other *Node) {
	n.SyncMsgs += other.SyncMsgs
	n.SyncBytes += other.SyncBytes
	n.FTMsgs += other.FTMsgs
	n.FTBytes += other.FTBytes
	n.GatherMsgs += other.GatherMsgs
	n.GatherBytes += other.GatherBytes
	n.ActivationMsgs += other.ActivationMsgs
	n.ActivationBytes += other.ActivationBytes
	n.RecoveryMsgs += other.RecoveryMsgs
	n.RecoveryBytes += other.RecoveryBytes
	n.DFSReadBytes += other.DFSReadBytes
	n.DFSWriteBytes += other.DFSWriteBytes
	n.MemoryBytes += other.MemoryBytes
	n.ComputeSeconds += other.ComputeSeconds
}

// TotalMsgs returns all messages sent.
func (n *Node) TotalMsgs() int64 {
	return n.SyncMsgs + n.FTMsgs + n.GatherMsgs + n.ActivationMsgs + n.RecoveryMsgs
}

// TotalBytes returns all bytes sent over the network.
func (n *Node) TotalBytes() int64 {
	return n.SyncBytes + n.FTBytes + n.GatherBytes + n.ActivationBytes + n.RecoveryBytes
}

// RedundantMsgFraction is the share of messages that exist only for fault
// tolerance (Fig 8b's metric).
func (n *Node) RedundantMsgFraction() float64 {
	total := n.TotalMsgs()
	if total == 0 {
		return 0
	}
	return float64(n.FTMsgs) / float64(total)
}

// String summarizes the counters for debug logs.
func (n *Node) String() string {
	return fmt.Sprintf("msgs=%d bytes=%d ft=%d/%d dfs=r%d/w%d mem=%d",
		n.TotalMsgs(), n.TotalBytes(), n.FTMsgs, n.FTBytes,
		n.DFSReadBytes, n.DFSWriteBytes, n.MemoryBytes)
}

// Buffers reports wire-buffer pool traffic: how often the engine's send,
// notice and checkpoint buffers were recycled instead of freshly allocated.
// In a warm steady-state superstep loop Misses stays flat while Gets grows.
type Buffers struct {
	// Gets counts buffer requests; Misses the requests the pool could not
	// serve (a fresh allocation happened); Puts the buffers recycled.
	Gets   int64
	Misses int64
	Puts   int64
}

// ReuseFraction is the share of buffer requests served from the pool.
func (b Buffers) ReuseFraction() float64 {
	if b.Gets == 0 {
		return 0
	}
	return float64(b.Gets-b.Misses) / float64(b.Gets)
}

// Serve reports the live-query layer's activity: how many reads ran, how
// many were diverted from a dead or suspected master to a surviving
// replica, how many were refused, and the worst epoch lag any answer
// carried.
type Serve struct {
	// Queries counts all Query calls (including rejected ones).
	Queries int64
	// FromReplica counts answers served by a replica host because the
	// vertex's master was dead or suspected.
	FromReplica int64
	// StaleRejected is always 0: serving has no staleness bound to refuse
	// against (core.ErrStaleRead). It stays for readers of the field.
	StaleRejected int64
	// Unavailable counts queries refused because no live, unsuspected node
	// held synced state for the vertex.
	Unavailable int64
	// MaxStaleness is the largest frontier-epoch lag observed by any query.
	MaxStaleness int64
}

// Membership reports the failure detector's activity for a run that
// exercised it: which protocol ran, how long each confirmed failure took
// to detect, how often live nodes were wrongly suspected, and what the
// detector's own traffic cost (gossip only).
type Membership struct {
	// Mode is the protocol name: "centralized" or "gossip".
	Mode string
	// DetectionSeconds holds the per-failure latency, in simulated
	// seconds, from the crash to the detector confirming it.
	DetectionSeconds []float64
	// FalseSuspicions counts suspicions originated against nodes that
	// were alive at the time (gossip probes lost to chaos).
	FalseSuspicions int
	// GossipBytes is the detector's own network volume, headers included.
	// Zero for the centralized monitor, whose beats ride the cost model.
	GossipBytes int64
	// GossipPeriods is the number of SWIM protocol periods executed.
	GossipPeriods int
}

// Cluster aggregates per-node metrics.
type Cluster struct {
	Nodes []Node
}

// NewCluster returns metrics storage for numNodes nodes.
func NewCluster(numNodes int) *Cluster {
	return &Cluster{Nodes: make([]Node, numNodes)}
}

// Total returns the sum over all nodes.
func (c *Cluster) Total() Node {
	var t Node
	for i := range c.Nodes {
		t.Add(&c.Nodes[i])
	}
	return t
}

// RecoveryTraffic returns the cluster-wide recovery message and byte
// totals. The engine snapshots it around each recovery pass to attribute
// per-recovery traffic in RecoveryReport.
func (c *Cluster) RecoveryTraffic() (msgs, bytes int64) {
	for i := range c.Nodes {
		msgs += c.Nodes[i].RecoveryMsgs
		bytes += c.Nodes[i].RecoveryBytes
	}
	return msgs, bytes
}

// MaxMemoryNode returns the largest per-node memory footprint.
func (c *Cluster) MaxMemoryNode() int64 {
	var best int64
	for i := range c.Nodes {
		if c.Nodes[i].MemoryBytes > best {
			best = c.Nodes[i].MemoryBytes
		}
	}
	return best
}
