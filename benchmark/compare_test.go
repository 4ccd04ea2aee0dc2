package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// around returns ten values spread evenly over +-half (as a share) of centre.
func around(centre, half float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = centre * (1 + half*(float64(i)/4.5-1))
	}
	return xs
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "job_wall_s", Unit: "s", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"steady and equal", wall, around(2, 0.02), around(2.05, 0.02), verdictSame},
		{"slower by more than the bound", wall, around(2, 0.02), around(2.4, 0.02), verdictWorse},
		{"faster by more than the bound", wall, around(2, 0.02), around(1.6, 0.02), verdictBetter},
		{"higher is better: a drop is worse", rate, around(1000, 0.02), around(800, 0.02), verdictWorse},
		{"higher is better: a rise is better", rate, around(1000, 0.02), around(1300, 0.02), verdictBetter},
		{"first set too noisy to tell", wall, around(2, 0.30), around(2.4, 0.02), verdictUnresolved},
		{"second set too noisy to tell", wall, around(2, 0.02), around(2.0, 0.30), verdictUnresolved},
		{"single equal samples", wall, []float64{2}, []float64{2}, verdictSame},
		{"single unequal samples", wall, []float64{2}, []float64{3}, verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func writeSet(t *testing.T, path string, jobWall []float64) {
	t.Helper()
	for i, w := range jobWall {
		rec := record{Workload: "ec-steady", Seed: uint64(i + 1), result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"job_wall_s": {Value: w, Unit: "s"},
			"sim_s":      {Value: 18, Unit: "s"},
		}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	// A traced record in the same file is not an end-to-end run and is skipped.
	traced := record{Workload: "ec-steady", Trace: 1, result: result{Metrics: map[string]metricValue{"job_wall_s": {Value: 12345, Unit: "s"}}}}
	if err := appendRecord(path, traced); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a, b, noisy := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl"), filepath.Join(dir, "noisy.jsonl")
	writeSet(t, a, around(2, 0.02))
	writeSet(t, b, around(2.8, 0.02))
	writeSet(t, noisy, around(2, 0.60))

	var out bytes.Buffer
	bad, err := compareFiles([]string{a, a}, &out)
	if err != nil || bad {
		t.Fatalf("a set against itself: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if !strings.Contains(out.String(), verdictSame) || strings.Contains(out.String(), "12345") {
		t.Errorf("self-comparison table:\n%s", out.String())
	}

	out.Reset()
	bad, err = compareFiles([]string{a, b}, &out)
	if err != nil || !bad {
		t.Fatalf("40%% slower must be worse: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("table lacks the worse verdict:\n%s", out.String())
	}

	out.Reset()
	if bad, err = compareFiles([]string{a}, &out); err != nil || bad {
		t.Fatalf("a steady set must pass its own spread check: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, err = compareFiles([]string{noisy}, &out); err != nil || !bad {
		t.Fatalf("a set noisier than the bound must fail the spread check: bad=%v err=%v\n%s", bad, err, out.String())
	}

	if _, err := compareFiles(nil, &out); err == nil {
		t.Error("no files must be an error")
	}
	if _, err := compareFiles([]string{filepath.Join(dir, "missing.jsonl")}, &out); err == nil {
		t.Error("a missing file must be an error")
	}
}
