package core_test

import (
	"math"
	"testing"

	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// TestWorkerCountDeterminism is the invariant of the simulated worker
// pool: the engine's output is bit-for-bit identical for any
// WorkersPerNode, across both engine modes, both algorithm styles and all
// three recovery strategies. "Identical" means the final vertex values match
// exactly AND every message-byte counter matches — the chunked phases must
// reproduce the serial engine's exact byte streams, or recovery equivalence
// would silently depend on the worker count.
func TestWorkerCountDeterminism(t *testing.T) {
	g := datasets.Tiny(600, 3600, 77)
	algos := []struct {
		name string
		run  func(t *testing.T, cfg core.Config, g *graph.Graph) *core.Result[float64]
	}{
		{"pagerank", runPR},
		{"sssp", runSP},
	}
	cases := []struct {
		name     string
		mode     core.Mode
		recovery core.RecoveryKind
	}{
		{"edgecut/rebirth", core.EdgeCutMode, core.RecoverRebirth},
		{"edgecut/migration", core.EdgeCutMode, core.RecoverMigration},
		{"edgecut/checkpoint", core.EdgeCutMode, core.RecoverCheckpoint},
		{"vertexcut/rebirth", core.VertexCutMode, core.RecoverRebirth},
		{"vertexcut/migration", core.VertexCutMode, core.RecoverMigration},
		{"vertexcut/checkpoint", core.VertexCutMode, core.RecoverCheckpoint},
	}
	for _, al := range algos {
		for _, tc := range cases {
			al, tc := al, tc
			t.Run(al.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				base := ftConfig(tc.mode, 6, 8, 1, tc.recovery)
				base.Chaos = crashAt(4, core.FailBeforeBarrier, 2)

				var ref *core.Result[float64]
				for _, workers := range []int{1, 2, 3, 8} {
					cfg := base
					cfg.WorkersPerNode = workers
					res := al.run(t, cfg, g)
					if workers == 1 {
						ref = res
						continue
					}
					valuesEqual(t, tc.name, res.Values, ref.Values, 0)
					if got, want := res.Metrics.TotalBytes(), ref.Metrics.TotalBytes(); got != want {
						t.Errorf("workers=%d: total bytes %d != serial %d", workers, got, want)
					}
					if got, want := res.Metrics.TotalMsgs(), ref.Metrics.TotalMsgs(); got != want {
						t.Errorf("workers=%d: total msgs %d != serial %d", workers, got, want)
					}
					for kind, pair := range map[string][2]int64{
						"sync":       {res.Metrics.SyncBytes, ref.Metrics.SyncBytes},
						"ft":         {res.Metrics.FTBytes, ref.Metrics.FTBytes},
						"gather":     {res.Metrics.GatherBytes, ref.Metrics.GatherBytes},
						"activation": {res.Metrics.ActivationBytes, ref.Metrics.ActivationBytes},
						"recovery":   {res.Metrics.RecoveryBytes, ref.Metrics.RecoveryBytes},
					} {
						if pair[0] != pair[1] {
							t.Errorf("workers=%d: %s bytes %d != serial %d", workers, kind, pair[0], pair[1])
						}
					}
					if len(res.Recoveries) != len(ref.Recoveries) {
						t.Errorf("workers=%d: %d recoveries != serial %d",
							workers, len(res.Recoveries), len(ref.Recoveries))
					}
				}
			})
		}
	}
}

// TestWorkerCostModel pins the simulated-time side of WorkersPerNode: the
// per-chunk busy counts folded through Cost.ComputeTime, placement cost
// included (a Rebirth crash at superstep 4). Every cell pins the bits of
// SimSeconds and Metrics.ComputeSeconds and the total wire bytes, so the
// Amdahl term at W > 1 is guarded by equality, not only by the two
// inequalities: more workers never make a run slower, and at 4 workers the
// charged compute time falls strictly below serial.
func TestWorkerCostModel(t *testing.T) {
	g := datasets.Tiny(400, 2400, 11)
	type pin struct {
		sim, compute uint64
		bytes        int64
	}
	cases := []struct {
		name string
		mode core.Mode
		run  func(t *testing.T, cfg core.Config, g *graph.Graph) *core.Result[float64]
		pins map[int]pin // by WorkersPerNode
	}{
		{"edgecut/pagerank", core.EdgeCutMode, runPR, map[int]pin{
			1: {0x3ff9e5260c62b514, 0x3f9ace9d8764e3b0, 101213},
			3: {0x3ff9e280ab14bc63, 0x3f9738bd8bbc3651, 101213},
			4: {0x3ff9d6e261e8f969, 0x3f90b3eb7f6a6e5e, 101213},
		}},
		{"edgecut/sssp", core.EdgeCutMode, runSP, map[int]pin{
			1: {0x3ff96b348deddb7f, 0x3f7f642e7dc1ccbe, 40503},
			3: {0x3ff96872e23c6754, 0x3f7a58143e257f96, 40503},
			4: {0x3ff965c3eb6e6a31, 0x3f7529828555eac3, 40503},
		}},
		{"vertexcut/pagerank", core.VertexCutMode, runPR, map[int]pin{
			1: {0x3ffbd3280e0ac430, 0x3f9acaaee55b390a, 180596},
			3: {0x3ffbc51181008515, 0x3f9234e234e8eae6, 180596},
			4: {0x3ffbc1a181ea0f05, 0x3f8c9de2ff692c3e, 180596},
		}},
		{"vertexcut/sssp", core.VertexCutMode, runSP, map[int]pin{
			1: {0x3ffaf0c3ae3e93e2, 0x3f7f6f66c028799a, 36612},
			3: {0x3ffaeaf9aa4ef025, 0x3f749b52ac4a4b52, 36612},
			4: {0x3ffaea2a68b2c38a, 0x3f70ea143063a00c, 36612},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ftConfig(tc.mode, 4, 8, 1, core.RecoverRebirth)
			cfg.Chaos = crashAt(4, core.FailBeforeBarrier, 2)
			var serial *core.Result[float64]
			for _, w := range []int{1, 3, 4} {
				cfg.WorkersPerNode = w
				res := tc.run(t, cfg, g)
				got := pin{math.Float64bits(res.SimSeconds), math.Float64bits(res.Metrics.ComputeSeconds), res.Metrics.TotalBytes()}
				if len(res.Recoveries) != 1 {
					t.Fatalf("W=%d: %d recoveries, want 1", w, len(res.Recoveries))
				}
				if got != tc.pins[w] {
					t.Errorf("W=%d: (sim, compute, bytes) = {%#x, %#x, %d} (%v, %v), want {%#x, %#x, %d}", w,
						got.sim, got.compute, got.bytes, res.SimSeconds, res.Metrics.ComputeSeconds,
						tc.pins[w].sim, tc.pins[w].compute, tc.pins[w].bytes)
				}
				if w == 1 {
					serial = res
					continue
				}
				if res.Metrics.ComputeSeconds >= serial.Metrics.ComputeSeconds {
					t.Errorf("%d workers not faster in simulated compute time: %g >= %g",
						w, res.Metrics.ComputeSeconds, serial.Metrics.ComputeSeconds)
				}
				if res.SimSeconds > serial.SimSeconds {
					t.Errorf("%d workers slower overall: %g > %g", w, res.SimSeconds, serial.SimSeconds)
				}
			}
		})
	}
}

// TestHostParallelismInvariance is the host-scheduling counterpart of
// TestWorkerCountDeterminism: HostParallelism caps real goroutines (the
// node-level phase pool) and must never change a simulated number. The sweep
// covers a pool narrower than the cluster (1 < 6 nodes), equal, and wider,
// under a mid-run crash so the recovery paths run on the capped pool too.
func TestHostParallelismInvariance(t *testing.T) {
	g := datasets.Tiny(600, 3600, 77)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		mode := mode
		t.Run(map[core.Mode]string{core.EdgeCutMode: "edgecut", core.VertexCutMode: "vertexcut"}[mode], func(t *testing.T) {
			t.Parallel()
			base := ftConfig(mode, 6, 8, 1, core.RecoverRebirth)
			base.WorkersPerNode = 4
			base.Chaos = crashAt(4, core.FailBeforeBarrier, 2)

			var ref *core.Result[float64]
			for _, hp := range []int{0, 1, 2, 6, 16} {
				cfg := base
				cfg.HostParallelism = hp
				res := runPR(t, cfg, g)
				if ref == nil {
					ref = res
					continue
				}
				valuesEqual(t, "hostpar", res.Values, ref.Values, 0)
				if res.SimSeconds != ref.SimSeconds {
					t.Errorf("hostpar=%d: sim %v != %v", hp, res.SimSeconds, ref.SimSeconds)
				}
				if got, want := res.Metrics.TotalBytes(), ref.Metrics.TotalBytes(); got != want {
					t.Errorf("hostpar=%d: total bytes %d != %d", hp, got, want)
				}
				if len(res.Recoveries) != len(ref.Recoveries) {
					t.Errorf("hostpar=%d: %d recoveries != %d", hp, len(res.Recoveries), len(ref.Recoveries))
				}
			}
		})
	}
}

func TestValidateHostParallelism(t *testing.T) {
	cfg := core.DefaultConfig(core.EdgeCutMode, 4)
	cfg.HostParallelism = -1
	if err := cfg.Validate(); err == nil {
		t.Error("HostParallelism=-1 validated")
	}
	cfg.HostParallelism = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("HostParallelism=0 rejected: %v", err)
	}
	// Oversubscription is explicit: NumNodes x WorkersPerNode is capped.
	cfg.WorkersPerNode = 8192
	if err := cfg.Validate(); err == nil {
		t.Error("4 nodes x 8192 workers (32768 sim tasks) validated")
	}
}

func TestValidateWorkersPerNode(t *testing.T) {
	cfg := core.DefaultConfig(core.EdgeCutMode, 4)
	if cfg.WorkersPerNode != 1 {
		t.Fatalf("DefaultConfig WorkersPerNode = %d, want 1", cfg.WorkersPerNode)
	}
	cfg.WorkersPerNode = 0
	if err := cfg.Validate(); err == nil {
		t.Error("WorkersPerNode=0 validated")
	}
	cfg.WorkersPerNode = -3
	if err := cfg.Validate(); err == nil {
		t.Error("WorkersPerNode=-3 validated")
	}
	cfg.WorkersPerNode = 16
	if err := cfg.Validate(); err != nil {
		t.Errorf("WorkersPerNode=16 rejected: %v", err)
	}
}
