package algorithms

import (
	"imitator/internal/core"
	"imitator/internal/graph"
)

// CC computes connected components by min-label propagation: every vertex
// adopts the smallest label among itself and its in-neighbors and scatters
// on change. On symmetric graphs this yields connected components; on
// directed graphs, the in-reachability closure of label minima.
type CC struct{}

// NewCC returns a connected-components program.
func NewCC() *CC { return &CC{} }

var _ core.Program[int32, int32] = (*CC)(nil)

// Name implements core.Program.
func (c *CC) Name() string { return "cc" }

// AlwaysActive implements core.Program.
func (c *CC) AlwaysActive() bool { return false }

// CanRecomputeSelfish implements core.Program: the running minimum is
// cumulative state.
func (c *CC) CanRecomputeSelfish() bool { return false }

// Init implements core.Program.
func (c *CC) Init(v graph.VertexID, _ core.VertexInfo) (int32, bool) { return int32(v), true }

// Gather implements core.Program: the smallest source label.
func (c *CC) Gather(_ graph.VertexID, in core.InEdges[int32]) int32 {
	low := in.Value(0)
	for k := 1; k < in.Len(); k++ {
		low = c.Merge(low, in.Value(k))
	}
	return low
}

// Merge implements core.Program.
func (c *CC) Merge(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// Apply implements core.Program.
func (c *CC) Apply(_ graph.VertexID, _ core.VertexInfo, old int32, acc int32, hasAcc bool, _ int) (int32, bool) {
	if !hasAcc || acc >= old {
		return old, false
	}
	return acc, true
}

// ValueCodec implements core.Program.
func (c *CC) ValueCodec() core.Codec[int32] { return core.Int32Codec{} }

// AccCodec implements core.Program.
func (c *CC) AccCodec() core.Codec[int32] { return core.Int32Codec{} }

// KCore computes the k-core: vertices die (value -1) when fewer than K
// in-neighbors remain alive, cascading until fixpoint. On symmetric graphs
// the survivors are exactly the k-core. A live vertex's value is its
// current count of live in-neighbors.
type KCore struct {
	K int
}

// NewKCore returns a k-core decomposition program.
func NewKCore(k int) *KCore { return &KCore{K: k} }

// Dead marks an eliminated vertex.
const Dead int32 = -1

var _ core.Program[int32, int32] = (*KCore)(nil)

// Name implements core.Program.
func (p *KCore) Name() string { return "kcore" }

// AlwaysActive implements core.Program.
func (p *KCore) AlwaysActive() bool { return false }

// CanRecomputeSelfish implements core.Program.
func (p *KCore) CanRecomputeSelfish() bool { return false }

// Init implements core.Program: everyone starts alive and checks itself in
// the first superstep.
func (p *KCore) Init(_ graph.VertexID, info core.VertexInfo) (int32, bool) {
	return info.InDeg, true
}

// Gather implements core.Program: the number of live in-neighbors.
func (p *KCore) Gather(_ graph.VertexID, in core.InEdges[int32]) int32 {
	live := int32(0)
	for k := 0; k < in.Len(); k++ {
		if in.Value(k) != Dead {
			live++
		}
	}
	return live
}

// Merge implements core.Program.
func (p *KCore) Merge(a, b int32) int32 { return a + b }

// Apply implements core.Program: die (and scatter) when support drops
// below K.
func (p *KCore) Apply(_ graph.VertexID, _ core.VertexInfo, old int32, acc int32, hasAcc bool, _ int) (int32, bool) {
	if old == Dead {
		return Dead, false
	}
	live := int32(0)
	if hasAcc {
		live = acc
	}
	if live < int32(p.K) {
		return Dead, true // dying changes neighbors' support
	}
	if live == old {
		return old, false
	}
	return live, false
}

// ValueCodec implements core.Program.
func (p *KCore) ValueCodec() core.Codec[int32] { return core.Int32Codec{} }

// AccCodec implements core.Program.
func (p *KCore) AccCodec() core.Codec[int32] { return core.Int32Codec{} }
