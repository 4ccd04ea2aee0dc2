package gossip

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestMemberRowSize: a detector holds n² view rows, so the row's size is the
// detector's memory at scale: 12 MB of rows at n = 1024.
func TestMemberRowSize(t *testing.T) {
	if sz := unsafe.Sizeof(member{}); sz > 12 {
		t.Errorf("a view row takes %d bytes, want at most 12", sz)
	}
}

// TestNewAllocBudget: New carves every per-member structure from a fixed set
// of slabs, so building a detector costs the same number of allocations
// whatever its size. maxNewAllocs covers the slabs plus the network's own
// (27 in all when this was written).
func TestNewAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	const maxNewAllocs = 30
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(2, func() { newDetector(t, n, Params{Seed: 3}) })
	}
	small, large := allocs(16), allocs(1024)
	if large != small {
		t.Errorf("New(1024) allocates %.0f times and New(16) %.0f: the count grows with n", large, small)
	}
	if large > maxNewAllocs {
		t.Errorf("New(1024) allocates %.0f times, want at most %d", large, maxNewAllocs)
	}
}

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
