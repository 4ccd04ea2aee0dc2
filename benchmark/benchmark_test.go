package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"imitator/pkg/imitator"
)

func resultWith(values []float64) *imitator.Result[float64] {
	return &imitator.Result[float64]{Values: values, SimSeconds: 1}
}

// BENCHMARK.json is generated from the tables in metrics.go; the checked-in
// file must be that output, byte for byte.
func TestManifestMatchesCheckedInFile(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
}

// The limits the benchmark contract puts on BENCHMARK.json.
func TestManifestWithinContract(t *testing.T) {
	data, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(data))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("manifest lacks %q", key)
		}
	}
	if len(doc) != 6 {
		t.Errorf("manifest has %d keys, want exactly 6", len(doc))
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d outside 1..60", runSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != lower {
		t.Errorf("the set-up metric must be setup_s, s, lower; got %+v", d)
	}
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s, which must have the widest", d.Name)
		}
	}
}

// The smoke profile drives all five workloads through both passes on two
// seeds: the result line has exactly the contract's keys, every metric of the
// pass's table is reported under its unit and no other, nothing fails, and
// the values keep to the output contract.
func TestSmokeEveryWorkloadBothPasses(t *testing.T) {
	for _, seed := range []string{"1", "2"} {
		for _, w := range workloads {
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				var stdout, stderr bytes.Buffer
				code := mainExit([]string{
					"--workload", w.Name, "--seed", seed, "--seconds", "0",
					"--trace", []string{"0", "1"}[trace], "--profile", "smoke",
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("%s seed %s trace %d: exit %d\n%s", w.Name, seed, trace, code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
				}
				if len(raw) != 4 {
					t.Errorf("%s: result has %d keys, want correct, attempted, failed, metrics", w.Name, len(raw))
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %s trace %d: correct=%v attempted=%d failed=%d\n%s",
						w.Name, seed, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s trace %d: %d metrics reported, table has %d", w.Name, trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s trace %d: metric %s not reported", w.Name, trace, d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: %s reported in %q, table says %q", w.Name, d.Name, m.Unit, d.Unit)
					case m.Value < 0, trace == 0 && m.Value == 0:
						t.Errorf("%s trace %d: %s = %v", w.Name, trace, d.Name, m.Value)
					}
				}
			}
		}
	}
}

// A failed check has to surface three ways: a FAIL line naming seed, workload
// and cell, correct=false with the failure counted, and a non-zero exit.
func TestFailureIsReported(t *testing.T) {
	var stderr bytes.Buffer
	r := &run{opt: options{workload: "ec-steady", seed: 7}, stderr: &stderr}
	r.checkJob("replication", jobStats{res: resultWith([]float64{1, 2, 3})}, []float64{1, 2, 4}, false, &simIdentity{})
	if r.failed != 1 {
		t.Fatalf("a value mismatch counted %d failures, want 1", r.failed)
	}
	for _, want := range []string{"FAIL", "workload=ec-steady", "seed=7", "cell=replication", "vertex 2"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("failure line %q lacks %q", stderr.String(), want)
		}
	}

	r = &run{opt: options{workload: "failover-matrix"}, stderr: io.Discard}
	r.checkJob("rebirth", jobStats{res: resultWith([]float64{1})}, []float64{1}, true, &simIdentity{})
	if r.failed != 1 {
		t.Error("a scheduled crash without a reported recovery must fail the job")
	}

	r = &run{stderr: io.Discard}
	first := &simIdentity{}
	a, b := resultWith([]float64{1}), resultWith([]float64{1})
	b.SimSeconds = a.SimSeconds + 1e-9
	r.checkJob("c", jobStats{res: a}, []float64{1}, false, first)
	r.checkJob("c", jobStats{res: a}, []float64{1}, false, first)
	if r.failed != 0 {
		t.Error("identical repetitions must pass")
	}
	r.checkJob("c", jobStats{res: b}, []float64{1}, false, first)
	if r.failed != 1 {
		t.Error("simulated seconds that change between repetitions must fail the job")
	}

	if code := mainExit([]string{"--workload", "no-such"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}
