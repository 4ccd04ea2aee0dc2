package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 4, 2, 6, 3, 5}, 2, 4, 6},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1.5, 1.5, 1.5}, 1.5, 1.5, 1.5},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v (ok=%v), want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must not resolve")
	}
}

func TestSpreadIsInterquartileShareOfMedian(t *testing.T) {
	got, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v (ok=%v), want 1", got, ok)
	}
	if _, ok := spread([]float64{0, 0, 0}); ok {
		t.Error("spread around a zero median must not resolve")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, ok := percentile(sorted(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %v ok=%v, want 990 true (ten samples beyond)", v, ok)
	}
	if _, ok := percentile(sorted(999), 0.99); ok {
		t.Error("p99 of 999 has only nine samples beyond it and must not be reported")
	}
	if _, ok := percentile(sorted(1000), 0.999); ok {
		t.Error("p99.9 of 1000 has one sample beyond it and must not be reported")
	}
	if v, ok := percentile(sorted(10000), 0.999); !ok || v != 9990 {
		t.Errorf("p99.9 of 10000 = %v ok=%v, want 9990 true", v, ok)
	}
	if v, ok := percentile(sorted(100), 0.5); !ok || v != 50 {
		t.Errorf("p50 of 100 = %v ok=%v, want 50 true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples must not be reported")
	}
}
