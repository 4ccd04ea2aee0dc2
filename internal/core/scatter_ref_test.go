package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"imitator/internal/graph"
	"imitator/internal/metrics"
)

// refScatterMark is the per-edge walk scatterMark performed before the
// scatter route existed: every out-target's hot slot is read to tell masters
// (an activation flag in active) from replicas (a notice to the master's
// node). It is the oracle the route is checked against.
func refScatterMark[V, A any](c *Cluster[V, A], nd *node[V, A], active []bool, notice [][]byte, met *metrics.Node, i int32) {
	for _, w := range nd.out(int(i)) {
		we := &nd.hot[w]
		if we.isMaster() {
			if !c.always {
				active[w] = true
			}
			continue
		}
		mn := int(we.masterNode)
		notice[mn] = binary.LittleEndian.AppendUint32(notice[mn], uint32(we.masterPos))
		met.ActivationMsgs++
		met.ActivationBytes += 4
	}
}

// checkScatterRoutes scatters every slot of every alive node once through
// the engine and once through the reference walk, and requires the same
// per-destination notices, activation flags and activation metrics. A
// frontier program scatters through scatterMark and must stage the walk's
// bytes exactly. An always-active program's notices are staged by length
// (countNotices, with every slot's pendingScatter set): each destination's
// payload must be all zeros, as long as the walk's. Both write into the node
// itself, so the cluster is not run afterwards.
func checkScatterRoutes[V, A any](t *testing.T, cl *Cluster[V, A], when string) {
	t.Helper()
	for _, nd := range cl.aliveNodes() {
		cl.routeReady(nd)
		wantActive := make([]bool, len(nd.hot))
		wantNotice := make([][]byte, cl.cfg.NumNodes)
		var wantMet metrics.Node
		for i := range nd.hot {
			nd.hot[i].pendingActive = false
			refScatterMark(cl, nd, wantActive, wantNotice, &wantMet, int32(i))
		}
		clear(nd.noticeBuf)
		*nd.met = metrics.Node{}
		if cl.always {
			for i := range nd.hot {
				nd.hot[i].pendingScatter = true
			}
			cl.countNotices(nd)
		} else {
			for i := range nd.hot {
				cl.scatterMark(nd, int32(i))
			}
		}
		for dst, want := range wantNotice {
			got := nd.noticeBuf[dst]
			switch {
			case cl.always && len(got) != len(want):
				t.Errorf("%s: node %d -> %d: %d notice bytes counted, per-edge walk %d",
					when, nd.id, dst, len(got), len(want))
			case cl.always && slices.ContainsFunc(got, func(b byte) bool { return b != 0 }):
				t.Errorf("%s: node %d -> %d: counted notices carry nonzero bytes", when, nd.id, dst)
			case !cl.always && !bytes.Equal(got, want):
				t.Errorf("%s: node %d -> %d: notice bytes differ from the per-edge walk (%d vs %d bytes)",
					when, nd.id, dst, len(got), len(want))
			}
		}
		for i := range nd.hot {
			if nd.hot[i].pendingActive != wantActive[i] {
				t.Errorf("%s: node %d: activation flag of slot %d is %v, per-edge walk %v",
					when, nd.id, i, nd.hot[i].pendingActive, wantActive[i])
				break
			}
		}
		if *nd.met != wantMet {
			t.Errorf("%s: node %d: activation metrics %d msgs / %d bytes, per-edge walk %d / %d", when, nd.id,
				nd.met.ActivationMsgs, nd.met.ActivationBytes, wantMet.ActivationMsgs, wantMet.ActivationBytes)
		}
	}
}

// fakeSSSP is a single-source shortest-path program: not always-active, so
// only the frontier computes and scatter feeds pendingActive. Every vertex
// starts active, as algorithms.SSSP does, so the first superstep relaxes the
// source's out-edges and the frontier moves.
type fakeSSSP struct{}

func (fakeSSSP) Name() string              { return "fake-sssp" }
func (fakeSSSP) AlwaysActive() bool        { return false }
func (fakeSSSP) CanRecomputeSelfish() bool { return false }
func (fakeSSSP) Init(id graph.VertexID, _ VertexInfo) (float64, bool) {
	if id == 0 {
		return 0, true
	}
	return math.Inf(1), true
}
func (fakeSSSP) Gather(_ graph.VertexID, in InEdges[float64]) float64 {
	best := in.Value(0) + in.Weight(0)
	for k := 1; k < in.Len(); k++ {
		best = min(best, in.Value(k)+in.Weight(k))
	}
	return best
}
func (fakeSSSP) Merge(a, b float64) float64 { return min(a, b) }
func (fakeSSSP) Apply(_ graph.VertexID, _ VertexInfo, old, acc float64, has bool, _ int) (float64, bool) {
	if has && acc < old {
		return acc, true
	}
	return old, false
}
func (fakeSSSP) ValueCodec() Codec[float64] { return Float64Codec{} }
func (fakeSSSP) AccCodec() Codec[float64]   { return Float64Codec{} }
