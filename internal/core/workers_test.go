package core_test

import (
	"testing"

	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// TestWorkerCountDeterminism is the tentpole invariant of the intra-node
// worker pool: the engine's output is bit-for-bit identical for any
// WorkersPerNode, across both engine modes, both algorithm styles and all
// three recovery strategies. "Identical" means the final vertex values match
// exactly AND every message-byte counter matches — the parallel encoder must
// reproduce the serial engine's exact byte streams, or recovery equivalence
// would silently depend on core count.
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

// TestWorkerCostModel checks the simulated-time side of the pool: more
// workers must never make a run slower, and at 4 workers the pool must
// actually run, so the charged compute time falls strictly below serial.
func TestWorkerCostModel(t *testing.T) {
	g := datasets.Tiny(400, 2400, 11)
	cfg := core.DefaultConfig(core.EdgeCutMode, 4)
	cfg.MaxIter = 6

	serial := runPR(t, cfg, g)
	cfg.WorkersPerNode = 4
	par := runPR(t, cfg, g)
	if par.Metrics.ComputeSeconds >= serial.Metrics.ComputeSeconds {
		t.Errorf("4 workers not faster in simulated compute time: %g >= %g",
			par.Metrics.ComputeSeconds, serial.Metrics.ComputeSeconds)
	}
	if par.SimSeconds > serial.SimSeconds {
		t.Errorf("4 workers slower overall: %g > %g", par.SimSeconds, serial.SimSeconds)
	}
}

// TestHostParallelismInvariance is the host-scheduling counterpart of
// TestWorkerCountDeterminism: HostParallelism caps real goroutines (phase
// pool + chunk slots) and must never change a simulated number. The sweep
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
