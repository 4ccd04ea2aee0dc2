package gossip

import (
	"fmt"
	"testing"
)

// lossyDetector builds an n-member detector whose first `lossy` members drop
// 20% of the datagrams on every link touching them — the benchmark's
// detect-1024 shape.
func lossyDetector(tb testing.TB, n, lossy int) *Detector {
	tb.Helper()
	d := newDetector(tb, n, Params{Seed: 7})
	for i := 0; i < lossy; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Net().SetDropRate(i, j, 0.2)
				d.Net().SetDropRate(j, i, 0.2)
			}
		}
	}
	return d
}

// TestSteadyPeriodAllocFree is the detector's counterpart of core's
// TestSteadyStateSuperstepAllocFree: once the staging buffers, mailboxes and
// queues have grown, a fault-free protocol period allocates nothing. With 20%
// loss around 32 members (the benchmark's detect shape) a period still
// touches lossy links it has never used, and each one's fate stream enters
// the omission layer's map; that map's growth and the odd member whose
// queue outgrows its initial room are all that is left, bounded here at
// maxLossyAllocs per period.
func TestSteadyPeriodAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	const n, warmup, maxLossyAllocs = 256, 10, 8
	for _, c := range []struct {
		name  string
		lossy int
		max   float64
	}{
		{"fault-free", 0, 0},
		{"drop20", 32, maxLossyAllocs},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := lossyDetector(t, n, c.lossy)
			defer d.Close()
			d.Fail(n - 2) // keep suspicion, ping-req and dissemination traffic flowing
			for i := 0; i < warmup; i++ {
				d.RunPeriod()
			}
			if avg := testing.AllocsPerRun(5, d.RunPeriod); avg > c.max {
				t.Errorf("a steady period allocates %.0f times, want at most %.0f", avg, c.max)
			}
			checkClean(t, d)
		})
	}
}

func BenchmarkRunPeriod(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := lossyDetector(b, n, 32)
			defer d.Close()
			d.Fail(n - 2)
			for i := 0; i < 10; i++ {
				d.RunPeriod()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.RunPeriod()
			}
		})
	}
}
