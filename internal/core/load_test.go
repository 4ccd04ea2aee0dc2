package core

import (
	"runtime"
	"slices"
	"testing"

	"imitator/internal/datasets"
)

// TestLoadHostWidthInvariance loads a graph of more than two loadMinBlock
// blocks of vertices at host widths 1 and 2, so every hostpar body in load
// runs on two goroutines, and checks that the job's values, simulated
// seconds and bytes do not depend on the width. It runs on at least two
// threads: on one, the first goroutine may take both blocks before the
// other starts, and -race then sees no overlap between them.
func TestLoadHostWidthInvariance(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	numV := 2*loadMinBlock + 1000
	g := datasets.Tiny(numV, 4*numV, 21)
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		t.Run(mode.String(), func(t *testing.T) {
			var ref *Result[float64]
			for _, width := range []int{1, 2} {
				cfg := DefaultConfig(mode, 6)
				cfg.MaxIter = 2
				cfg.HostParallelism = width
				cl, err := NewCluster[float64, float64](cfg, g, &benchPR{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if !slices.Equal(res.Values, ref.Values) {
					t.Error("values differ between host widths 1 and 2")
				}
				if res.SimSeconds != ref.SimSeconds {
					t.Errorf("sim %v != %v", res.SimSeconds, ref.SimSeconds)
				}
				if got, want := res.Metrics.TotalBytes(), ref.Metrics.TotalBytes(); got != want {
					t.Errorf("total bytes %d != %d", got, want)
				}
			}
		})
	}
}
