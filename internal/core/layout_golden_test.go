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

// recoveryGolden is the one RecoveryReport and "recovery" trace span of the
// same job: phase seconds and span ends as float bits, recovery traffic and
// recovered counts.
type recoveryGolden struct {
	reload, reconstruct, replay uint64
	spanStart, spanEnd          uint64
	msgs, bytes                 int64
	vertices, edges             int
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

// recoveryGoldens were recorded on the commit before the four recover* passes
// moved their bookkeeping into one frame, with the crashes injected by marking
// the coordinator directly rather than through the failure detector: the
// frame must fill every report field and the trace span exactly as the
// hand-written copies did, and detection must cost exactly what it did.
var recoveryGoldens = map[string]recoveryGolden{
	"pagerank/edge-cut/rebirth":      {0x3f9cc9f5c98cee00, 0x3f56b4776b716800, 0x0, 0x3ff8e6f88f51e841, 0x3ff95fcd8452f853, 267, 32457, 267, 454},
	"sssp/edge-cut/rebirth":          {0x3f9ee4e26d480200, 0x3f557689ca18bc00, 0x0, 0x3ff88b2eabb53cec, 0x3ff90c1fd7dce323, 254, 34924, 254, 420},
	"cc/edge-cut/rebirth":            {0x3f8b8f2b39f8d880, 0x3f498aeb80ecf800, 0x0, 0x3ff8802672a225a1, 0x3ff8ba76268634f1, 166, 14868, 166, 165},
	"pagerank/edge-cut/migration":    {0x3f56db0dd82fd800, 0x3f9b3a27d2654b80, 0x0, 0x3ff8e6f88f51e841, 0x3ff95997f2118965, 963, 54285, 208, 454},
	"sssp/edge-cut/migration":        {0x3f5626b2f2303400, 0x3f98b2e55364ba00, 0x0, 0x3ff88b2eabb53cec, 0x3ff8f383edbf5be1, 894, 48698, 176, 420},
	"cc/edge-cut/migration":          {0x3f53c254a3c64400, 0x3f90c1c029505b40, 0x0, 0x3ff8802672a225a1, 0x3ff8c81e0870589f, 443, 26114, 92, 165},
	"pagerank/edge-cut/checkpoint":   {0x3fb92478c9d64170, 0x3f80050cf6d01d80, 0x3f8712565bb5d980, 0x3ffa989956f50913, 0x3ffc4aeafd800d65, 1063, 19134, 264, 454},
	"sssp/edge-cut/checkpoint":       {0x3fb8e935e6d05f80, 0x3f7f8417e07fc100, 0x3f7e9a45c0bc9400, 0x3ff964c271fff79c, 0x3ffb12d9e84d7d55, 1063, 19134, 238, 420},
	"cc/edge-cut/checkpoint":         {0x3fb2cfeb80a87100, 0x3f7075b3e1437c00, 0x3f7f65ffc7844600, 0x3ff952a2525e2a10, 0x3ffa9016be49f49c, 561, 7854, 147, 165},
	"pagerank/edge-cut/logged":       {0x3f9f4ee9d2129000, 0x0, 0x3fba4da765068650, 0x3ff9aaa6108884cd, 0x3ffbccbc2e213772, 0, 0, 264, 454},
	"sssp/edge-cut/logged":           {0x3f9e61de45fb0840, 0x0, 0x3fb11b0c705e8010, 0x3ff8d8c3dd81978c, 0x3ffa63fc1d9f6bae, 0, 0, 238, 420},
	"cc/edge-cut/logged":             {0x3f995d157285bd00, 0x0, 0x3fb13ce60cab2dc0, 0x3ff8c4eb56fb8f58, 0x3ffa3e2e0d905928, 0, 0, 147, 165},
	"pagerank/vertex-cut/rebirth":    {0x3fbfe28586634210, 0x3f5aa6dfd339d000, 0x0, 0x3ff9860aa64c2f83, 0x3ffb8adcb6a73218, 305, 16313, 305, 581},
	"sssp/vertex-cut/rebirth":        {0x3fbf95c655898a00, 0x3f5a1d4d17e0c800, 0x3f58239b9ee5c400, 0x3ff8d097bf159bb9, 0x3ffad6845e9be5fc, 444, 18337, 322, 437},
	"cc/vertex-cut/rebirth":          {0x3fbcdb553ca4b9c0, 0x3f4e2584f4c6e800, 0x3f56b819fef65c00, 0x3ff8db86bbcff58e, 0x3ffab2aec6b8979e, 291, 10285, 195, 200},
	"pagerank/vertex-cut/migration":  {0x3f5735ee402bb000, 0x3fb895f0e6dfdf00, 0x0, 0x3ff9860aa64c2f83, 0x3ffb1537304a385f, 1123, 29465, 220, 581},
	"sssp/vertex-cut/migration":      {0x3f59b90ea9e6f000, 0x3fb7a537273f33e0, 0x3f53c52077b66000, 0x3ff8d097bf159bb9, 0x3ffa564abd51f64b, 1252, 31133, 248, 437},
	"cc/vertex-cut/migration":        {0x3f558a1c95a99000, 0x3fb5c069480fe340, 0x3f52839042d8c400, 0x3ff8db86bbcff58e, 0x3ffa4190bb871457, 644, 16058, 121, 200},
	"pagerank/vertex-cut/checkpoint": {0x3fb749441fd3a890, 0x3f816db556d61780, 0x3f93e6b162848940, 0x3ffb3d8e1ddbe2d2, 0x3ffcd4fdca86c98a, 1150, 20700, 305, 581},
	"sssp/vertex-cut/checkpoint":     {0x3fb6d1fa05867640, 0x3f813af510298a80, 0x3f87acd3d9486500, 0x3ff9ace594d319a6, 0x3ffb3c7b1f4bd41f, 1150, 20700, 306, 437},
	"cc/vertex-cut/checkpoint":       {0x3fb2ffad73d8da50, 0x3f738f4cc7e81a00, 0x3f8b37d5891c1480, 0x3ff9b014d668b672, 0x3ffaf39efa6e2c31, 702, 9828, 193, 200},
	"pagerank/vertex-cut/logged":     {0x3fa0dd262e112220, 0x0, 0x3fbae9972c7c6d80, 0x3ffa2e9054170842, 0x3ffc6412f84f582b, 0, 0, 305, 581},
	"sssp/vertex-cut/logged":         {0x3f9fdd23f2ed7b00, 0x0, 0x3fb1a47ee6c22f10, 0x3ff91770ca6d76fb, 0x3ffab12d48a54fd8, 0, 0, 306, 437},
	"cc/vertex-cut/logged":           {0x3f9aac4b1f547dc0, 0x0, 0x3fb1982eed335940, 0x3ff9214ef9329e41, 0x3ffaa583148325cc, 0, 0, 193, 200},
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

func layoutRun[V float64 | int32, A any](t *testing.T, cfg core.Config, g *graph.Graph, prog core.Program[V, A]) (layoutGolden, recoveryGolden) {
	t.Helper()
	cl, err := core.NewCluster[V, A](cfg, g, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("the scheduled crash reported %d recoveries, want 1", len(res.Recoveries))
	}
	r := res.Recoveries[0]
	rec := recoveryGolden{
		reload: math.Float64bits(r.ReloadSeconds), reconstruct: math.Float64bits(r.ReconstructSeconds),
		replay: math.Float64bits(r.ReplaySeconds),
		msgs:   r.Msgs, bytes: r.Bytes, vertices: r.RecoveredVertices, edges: r.RecoveredEdges,
	}
	spans := 0
	for _, ev := range res.Trace {
		if ev.Kind == core.TraceRecovery {
			rec.spanStart, rec.spanEnd = math.Float64bits(ev.Start), math.Float64bits(ev.End)
			spans++
		}
	}
	if spans != 1 {
		t.Fatalf("%d recovery trace spans, want 1", spans)
	}
	return layoutGolden{hashBits(res.Values), math.Float64bits(res.SimSeconds), res.Metrics.TotalBytes(), res.TotalMemory}, rec
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
			runs := map[string]func(*testing.T) (layoutGolden, recoveryGolden){
				"pagerank": func(t *testing.T) (layoutGolden, recoveryGolden) {
					cfg := s.cfg(mode, 8)
					cfg.Chaos = crashAt(4, core.FailBeforeBarrier, 2)
					return layoutRun[float64, float64](t, cfg, directed, algorithms.NewPageRank(directed.NumVertices()))
				},
				"sssp": func(t *testing.T) (layoutGolden, recoveryGolden) {
					cfg := s.cfg(mode, 40)
					cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 1)
					return layoutRun[float64, float64](t, cfg, directed, algorithms.NewSSSP(3))
				},
				"cc": func(t *testing.T) (layoutGolden, recoveryGolden) {
					cfg := s.cfg(mode, 40)
					cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 2)
					return layoutRun[int32, int32](t, cfg, symmetric, algorithms.NewCC())
				},
			}
			for _, algo := range []string{"pagerank", "sssp", "cc"} {
				name := fmt.Sprintf("%s/%s/%s", algo, mode, s.name)
				t.Run(name, func(t *testing.T) {
					got, gotRec := runs[algo](t)
					want, ok := layoutGoldens[name]
					if !ok || got != want {
						t.Errorf("%q: {%#x, %#x, %d, %d}, // got; want %+v", name, got.values, got.sim, got.bytes, got.mem, want)
					}
					if wantRec, ok := recoveryGoldens[name]; !ok || gotRec != wantRec {
						t.Errorf("%q: {%#x, %#x, %#x, %#x, %#x, %d, %d, %d, %d}, // got; want %+v", name,
							gotRec.reload, gotRec.reconstruct, gotRec.replay, gotRec.spanStart, gotRec.spanEnd,
							gotRec.msgs, gotRec.bytes, gotRec.vertices, gotRec.edges, wantRec)
					}
				})
			}
		}
	}
}
