package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// layoutGolden is one job's simulator-visible outcome: a hash of the final
// value bits, the simulated clock's bits, wire bytes and modelled memory.
type layoutGolden struct {
	values, sim uint64
	bytes, mem  int64
}

// layoutGoldens were recorded on the commit before the per-node vertex array
// was split into hot/topo/meta tables and the always-active activation
// fan-out was elided. Neither change may move a single bit of them: the
// always-active program (PageRank) shows the elision is invisible, the
// activation-driven ones (SSSP, CC) that the fan-out still runs where a
// reader exists.
var layoutGoldens = map[string]layoutGolden{
	"pagerank/edge-cut/rebirth":      {0x565cea91c99a7e5d, 0x3ffa1b18efa331f7, 159610, 317712},
	"sssp/edge-cut/rebirth":          {0xbcd482b104b880e2, 0x3ffc57e7e2baec17, 78058, 317712},
	"cc/edge-cut/rebirth":            {0xf5f5184a7f7281d1, 0x3ffbcf1c29730794, 42399, 154130},
	"pagerank/edge-cut/migration":    {0x565cea91c99a7e5d, 0x3ffa1c2d2d779101, 175614, 354282},
	"sssp/edge-cut/migration":        {0xbcd482b104b880e2, 0x3ffc421a1e17e92d, 89687, 356004},
	"cc/edge-cut/migration":          {0xf5f5184a7f7281d1, 0x3ffbdce17973d0e8, 52358, 171078},
	"pagerank/edge-cut/checkpoint":   {0x565cea91c99a7e5d, 0x3ffeb87ac461c6c9, 140996, 251297},
	"sssp/edge-cut/checkpoint":       {0xbcd482b104b880e2, 0x400759bc8ee05a7f, 62138, 251297},
	"cc/edge-cut/checkpoint":         {0xf5f5184a7f7281d1, 0x4006be541d4b82b5, 38256, 123071},
	"pagerank/edge-cut/logged":       {0x565cea91c99a7e5d, 0x3ffd4c58ae966c92, 121862, 251297},
	"sssp/edge-cut/logged":           {0xbcd482b104b880e2, 0x3fff2fa134a43b1d, 41236, 251297},
	"cc/edge-cut/logged":             {0xf5f5184a7f7281d1, 0x3ffe9dcf1f350dd2, 26100, 123071},
	"pagerank/vertex-cut/rebirth":    {0xb8918ded2fa29ce0, 0x3ffccb2c79a4b9e0, 307079, 276384},
	"sssp/vertex-cut/rebirth":        {0xbcd482b104b880e2, 0x3ffe98541bae426e, 110599, 276384},
	"cc/vertex-cut/rebirth":          {0xf5f5184a7f7281d1, 0x3ffe05cd33ea9a57, 80578, 152198},
	"pagerank/vertex-cut/migration":  {0xd29fe8a379eb185, 0x3ffc4c078325185b, 296295, 306862},
	"sssp/vertex-cut/migration":      {0xbcd482b104b880e2, 0x3ffe13d627364ecd, 113263, 305141},
	"cc/vertex-cut/migration":        {0xf5f5184a7f7281d1, 0x3ffd9347f6aa8f2c, 82589, 165080},
	"pagerank/vertex-cut/checkpoint": {0xb8918ded2fa29ce0, 0x3fffcd503f3f3202, 307774, 261650},
	"sssp/vertex-cut/checkpoint":     {0xbcd482b104b880e2, 0x4007c9807e202710, 116949, 261650},
	"cc/vertex-cut/checkpoint":       {0xf5f5184a7f7281d1, 0x40072a5862f48c84, 91454, 138722},
	"pagerank/vertex-cut/logged":     {0xb8918ded2fa29ce0, 0x3ffe4d67a342e613, 287074, 261650},
	"sssp/vertex-cut/logged":         {0xbcd482b104b880e2, 0x3fffea7b30303dab, 90988, 261650},
	"cc/vertex-cut/logged":           {0xf5f5184a7f7281d1, 0x3fff43b886b46bbb, 69384, 138722},
}

func hashBits[V float64 | int32](vals []V) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		var bits uint64
		switch x := any(v).(type) {
		case float64:
			bits = math.Float64bits(x)
		case int32:
			bits = uint64(uint32(x))
		}
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func layoutRun[V float64 | int32, A any](t *testing.T, cfg core.Config, g *graph.Graph, prog core.Program[V, A]) layoutGolden {
	t.Helper()
	cl, err := core.NewCluster[V, A](cfg, g, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) == 0 {
		t.Fatal("the scheduled crash reported no recovery")
	}
	return layoutGolden{hashBits(res.Values), math.Float64bits(res.SimSeconds), res.Metrics.TotalBytes(), res.TotalMemory}
}

// TestLayoutAndElisionGoldens runs PageRank (always-active), SSSP and CC
// (activation-driven) under both engines and all four strategies with one
// crash, and compares every simulator-visible output with the goldens.
func TestLayoutAndElisionGoldens(t *testing.T) {
	directed := datasets.Tiny(600, 3600, 77)
	symmetric := symmetricGraph(400, 600, 63)
	strategies := []struct {
		name string
		cfg  func(core.Mode, int) core.Config
	}{
		{"rebirth", func(m core.Mode, it int) core.Config { return ftConfig(m, 6, it, 1, core.RecoverRebirth) }},
		{"migration", func(m core.Mode, it int) core.Config { return ftConfig(m, 6, it, 1, core.RecoverMigration) }},
		{"checkpoint", func(m core.Mode, it int) core.Config { return ftConfig(m, 6, it, 1, core.RecoverCheckpoint) }},
		{"logged", func(m core.Mode, it int) core.Config { return loggedConfig(m, 6, it) }},
	}
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		for _, s := range strategies {
			runs := map[string]func(*testing.T) layoutGolden{
				"pagerank": func(t *testing.T) layoutGolden {
					cfg := s.cfg(mode, 8)
					cfg.Failures = failAt(4, core.FailBeforeBarrier, 2)
					return layoutRun[float64, float64](t, cfg, directed, algorithms.NewPageRank(directed.NumVertices()))
				},
				"sssp": func(t *testing.T) layoutGolden {
					cfg := s.cfg(mode, 40)
					cfg.Failures = failAt(3, core.FailBeforeBarrier, 1)
					return layoutRun[float64, float64](t, cfg, directed, algorithms.NewSSSP(3))
				},
				"cc": func(t *testing.T) layoutGolden {
					cfg := s.cfg(mode, 40)
					cfg.Failures = failAt(3, core.FailBeforeBarrier, 2)
					return layoutRun[int32, int32](t, cfg, symmetric, algorithms.NewCC())
				},
			}
			for _, algo := range []string{"pagerank", "sssp", "cc"} {
				name := fmt.Sprintf("%s/%s/%s", algo, mode, s.name)
				t.Run(name, func(t *testing.T) {
					got := runs[algo](t)
					want, ok := layoutGoldens[name]
					if !ok || got != want {
						t.Errorf("%q: {%#x, %#x, %d, %d}, // got; want %+v", name, got.values, got.sim, got.bytes, got.mem, want)
					}
				})
			}
		}
	}
}
