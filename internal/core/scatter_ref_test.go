package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"imitator/internal/graph"
)

// refScatterMark is the per-edge walk scatterMark performed before the
// scatter route existed: every out-target's hot slot is read to tell masters
// (activation list) from replicas (a notice to the master's node). It is the
// oracle the route is checked against.
func refScatterMark[V, A any](c *Cluster[V, A], nd *node[V, A], st *stager, i int32) {
	for _, w := range nd.out(int(i)) {
		we := &nd.hot[w]
		if we.isMaster() {
			if !c.always {
				st.pendingActive = append(st.pendingActive, w)
			}
			continue
		}
		mn := int(we.masterNode)
		st.notice[mn] = binary.LittleEndian.AppendUint32(st.noticeBuf(mn), uint32(we.masterPos))
		st.met.ActivationMsgs++
		st.met.ActivationBytes += 4
	}
}

// checkScatterRoutes scatters every slot of every alive node once through
// scatterMark and once through the reference walk, and requires the same
// per-destination notice bytes, activation list and activation metrics.
func checkScatterRoutes[V, A any](t *testing.T, cl *Cluster[V, A], when string) {
	t.Helper()
	for _, nd := range cl.aliveNodes() {
		cl.routeReady(nd)
		var got, want stager
		got.notice, want.notice = make([][]byte, cl.cfg.NumNodes), make([][]byte, cl.cfg.NumNodes)
		for i := range nd.hot {
			cl.scatterMark(nd, &got, int32(i))
			refScatterMark(cl, nd, &want, int32(i))
		}
		for dst := range want.notice {
			if !bytes.Equal(got.notice[dst], want.notice[dst]) {
				t.Errorf("%s: node %d -> %d: notice bytes differ from the per-edge walk (%d vs %d bytes)",
					when, nd.id, dst, len(got.notice[dst]), len(want.notice[dst]))
			}
		}
		if !slices.Equal(got.pendingActive, want.pendingActive) {
			t.Errorf("%s: node %d: activation list differs from the per-edge walk (%d vs %d entries)",
				when, nd.id, len(got.pendingActive), len(want.pendingActive))
		}
		if got.met != want.met {
			t.Errorf("%s: node %d: activation metrics %d msgs / %d bytes, per-edge walk %d / %d", when, nd.id,
				got.met.ActivationMsgs, got.met.ActivationBytes, want.met.ActivationMsgs, want.met.ActivationBytes)
		}
	}
}

// fakeSSSP is a single-source shortest-path program: not always-active, so
// only the frontier computes and scatter feeds pendingActive.
type fakeSSSP struct{}

func (fakeSSSP) Name() string              { return "fake-sssp" }
func (fakeSSSP) AlwaysActive() bool        { return false }
func (fakeSSSP) CanRecomputeSelfish() bool { return false }
func (fakeSSSP) Init(id graph.VertexID, _ VertexInfo) (float64, bool) {
	if id == 0 {
		return 0, true
	}
	return math.Inf(1), false
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
