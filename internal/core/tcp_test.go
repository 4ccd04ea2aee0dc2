package core_test

import (
	"testing"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// TestTCPTransportMatchesMemory runs the whole protocol — supersteps, sync
// records, recovery — over real loopback TCP sockets and demands exactly
// the in-memory backend's results.
func TestTCPTransportMatchesMemory(t *testing.T) {
	g := datasets.Tiny(400, 2400, 909)
	for _, tc := range []struct {
		name string
		mode core.Mode
		rec  core.RecoveryKind
	}{
		{"edgecut/rebirth", core.EdgeCutMode, core.RecoverRebirth},
		{"edgecut/migration", core.EdgeCutMode, core.RecoverMigration},
		{"vertexcut/rebirth", core.VertexCutMode, core.RecoverRebirth},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(tr core.TransportKind) []float64 {
				cfg := core.DefaultConfig(tc.mode, 4)
				cfg.Transport = tr
				cfg.MaxIter = 6
				cfg.Recovery = tc.rec
				cfg.Chaos = crashAt(3, core.FailBeforeBarrier, 2)
				cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res.Values
			}
			mem := run(core.TransportMem)
			tcp := run(core.TransportTCP)
			for v := range mem {
				if mem[v] != tcp[v] {
					t.Fatalf("vertex %d: tcp %v != mem %v", v, tcp[v], mem[v])
				}
			}
		})
	}
}

// TestTCPTransportSSSP exercises the activation machinery (sparse rounds,
// notice rounds) over sockets.
func TestTCPTransportSSSP(t *testing.T) {
	g := datasets.Tiny(300, 1800, 910)
	run := func(tr core.TransportKind) []float64 {
		cfg := core.DefaultConfig(core.VertexCutMode, 3)
		cfg.Transport = tr
		cfg.MaxIter = 30
		cfg.Recovery = core.RecoverMigration
		cfg.Chaos = crashAt(2, core.FailAfterBarrier, 1)
		cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewSSSP(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	mem := run(core.TransportMem)
	tcp := run(core.TransportTCP)
	for v := range mem {
		if mem[v] != tcp[v] {
			t.Fatalf("vertex %d: tcp %v != mem %v", v, tcp[v], mem[v])
		}
	}
}

// TestMasterValueInspection covers the mid-run inspection API.
func TestMasterValueInspection(t *testing.T) {
	g := datasets.Tiny(100, 500, 911)
	cfg := core.DefaultConfig(core.EdgeCutMode, 3)
	cfg.MaxIter = 3
	cl, err := core.NewCluster[float64, float64](cfg, g, algorithms.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if rf := cl.ReplicationFactor(); rf < 1 {
		t.Errorf("ReplicationFactor = %v", rf)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v += 17 {
		got, err := cl.MasterValue(graph.VertexID(v))
		if err != nil {
			t.Fatal(err)
		}
		if got != res.Values[v] {
			t.Errorf("vertex %d: MasterValue %v != result %v", v, got, res.Values[v])
		}
	}
	if _, err := cl.MasterValue(0); err != nil {
		t.Fatal(err)
	}
}
