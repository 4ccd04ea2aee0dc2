package core

import (
	"bytes"
	"testing"

	"imitator/internal/datasets"
)

// TestLogWriteDeterminism is the log layer's determinism contract: the
// superstep-log bytes every node persists are identical for any simulated
// worker-pool width and across repeated runs.
func TestLogWriteDeterminism(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(400, 2400, 55)
		logBytes := func(workers int) map[string][]byte {
			cfg := DefaultConfig(mode, 4)
			cfg.MaxIter = 6
			cfg.Logged = LoggedConfig{CompactEvery: 3}
			cfg.Recovery = RecoverLogged
			cfg.WorkersPerNode = workers
			cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Run(); err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{}
			for n := 0; n < cfg.NumNodes; n++ {
				for s := 0; s < cfg.MaxIter; s++ {
					path := flogPath(n, s)
					data, _, err := cl.dfs.Read(n, path)
					if err != nil {
						t.Fatalf("%v: %s: %v", mode, path, err)
					}
					files[path] = data
				}
			}
			return files
		}
		serial := logBytes(1)
		for _, workers := range []int{2, 4} {
			parallel := logBytes(workers)
			for path, want := range serial {
				if !bytes.Equal(parallel[path], want) {
					t.Fatalf("%v: %s differs between 1 and %d workers (%d vs %d bytes)",
						mode, path, workers, len(want), len(parallel[path]))
				}
			}
		}
	}
}
