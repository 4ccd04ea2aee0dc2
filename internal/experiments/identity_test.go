package experiments

import (
	"fmt"
	"testing"

	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/serveload"
)

// The identity gate. Simulated seconds and message bytes are outputs of the
// simulation, not of the host, so an engine change that moves any of them
// changed the semantics, not the speed. The expected values below are the 18
// sim_seconds/msg_bytes pairs (and the membership cells' counts) of
// BENCH_PR10.json, recorded by the retired `cmd/bench -json` at 8 nodes,
// 1 worker, and copied here unchanged when that file was deleted. Like
// core's layoutGoldens they are never re-recorded to make a change pass;
// ROADMAP's generator re-baseline is the one sanctioned exception.

// serveREP is the serve probes' strategy: K=2 with replicas kept synced (no
// selfish opt-out), so failover reads are served from them, not refused.
func serveREP(o Options) core.Config {
	cfg := withREP(baseEdgeCut(o), 2)
	cfg.FT.SelfishOpt = false
	return cfg
}

// identityJobs are PageRank/gweb jobs on Defaults() (8 nodes, 1 worker).
var identityJobs = []struct {
	id         string
	iters      int
	crash      bool // node 1 fails mid-run (oneFailure)
	serve      bool // run resident with a live query stream
	cfg        func(Options) core.Config
	simSeconds float64
	msgBytes   int64
}{
	{"superstep/edgecut/pagerank", 25, false, false,
		func(o Options) core.Config { return withREP(baseEdgeCut(o), 1) },
		2.6312743749999994, 9898525},
	{"superstep/vertexcut/pagerank", 25, false, false,
		func(o Options) core.Config { return withREP(baseVertexCut(o), 1) },
		5.251229583333333, 22160950},
	{"ftcompare/logged", 10, true, false,
		func(o Options) core.Config { return withLogged(baseEdgeCut(o), 4) },
		5.087648749544074, 4205058},
	{"ftcompare/checkpoint", 10, true, false,
		func(o Options) core.Config { return withCKPT(baseEdgeCut(o), 1, false) },
		4.601249175785208, 4740558},
	{"serve/faultfree", 10, false, true, serveREP, 1.340486833333333, 5341700},
	{"serve/failover", 10, true, true, serveREP, 3.867236190476191, 6850865},
}

func TestIdentityJobs(t *testing.T) {
	for _, j := range identityJobs {
		t.Run(j.id, func(t *testing.T) {
			w := Workload{Algo: "pagerank", Dataset: "gweb", Iters: j.iters}
			cfg := j.cfg(Defaults())
			if j.crash {
				cfg.Chaos = oneFailure(j.iters)
			}
			run := RunWorkload
			if j.serve {
				run = runServed
			}
			s, err := run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if j.crash && len(s.Recoveries) == 0 {
				t.Error("crash produced no recovery")
			}
			if got := s.Metrics.TotalBytes(); s.SimSeconds != j.simSeconds || got != j.msgBytes {
				t.Errorf("identity drift: sim_seconds %v -> %v, msg_bytes %d -> %d",
					j.simSeconds, s.SimSeconds, j.msgBytes, got)
			}
		})
	}
}

// runServed runs w resident while the retired serve probe's query stream
// (2000 seeded Zipf reads, paced through the whole run, crash window
// included) reads it through the wire codec. Serving charges no simulated
// time, which is what the serve/* rows pin.
func runServed(w Workload, cfg core.Config) (core.RunSummary, error) {
	g, err := datasets.Load(w.Dataset)
	if err != nil {
		return core.RunSummary{}, err
	}
	h, err := StartWorkloadOn(w, g, cfg)
	if err != nil {
		return core.RunSummary{}, err
	}
	load, err := serveload.Run(serveload.Config{
		Queries: 2000, Seed: 1, NumVertices: g.NumVertices(), TopK: 10, Done: h.Done(),
	}, h.Query)
	if err != nil {
		return core.RunSummary{}, fmt.Errorf("load: %w", err)
	}
	if load.Answered == 0 {
		return core.RunSummary{}, fmt.Errorf("load: none of %d queries was answered", load.Issued)
	}
	return h.Wait()
}

// identityMembership are BENCH_PR10.json's membership/<detector>/n<n>/<fault>
// entries: sim_seconds, detection_periods, false_suspicions, false_confirms,
// detector_messages, msg_bytes.
var identityMembership = []memCell{
	{8, "drop", "gossip", 4, 8, 20, 0, 1405, 59376},
	{8, "drop", "central", 1, 2, 7, 0, 246, 2952},
	{8, "part", "gossip", 3.5, 7, 7, 0, 655, 24664},
	{8, "part", "central", 1.5, 3, 2, 0, 246, 2952},
	{128, "drop", "gossip", 6.5, 13, 87, 1, 18236, 1630394},
	{128, "drop", "central", 1, 2, 145, 26, 5046, 60552},
	{128, "part", "gossip", 7, 14, 27, 0, 10556, 917106},
	{128, "part", "central", 1.5, 3, 8, 0, 5046, 60552},
	{1024, "drop", "gossip", 9, 18, 50, 1, 92950, 7836825},
	{1024, "drop", "central", 1.5, 3, 1106, 216, 40886, 490632},
	{1024, "part", "gossip", 8.5, 17, 34, 0, 83279, 7275998},
	{1024, "part", "central", 1.5, 3, 8, 0, 40886, 490632},
}

func TestIdentityMembership(t *testing.T) {
	for i := 0; i < len(identityMembership); i += 4 {
		want := identityMembership[i : i+4]
		n := want[0].n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			if raceEnabled && n > 128 {
				t.Skip("the n=1024 gossip cells take minutes under the race detector; CI runs them in the plain identity step")
			}
			got, err := membershipMatrix([]int{n})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d cells, want %d", len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Errorf("membership/%s/n%d/%s identity drift:\n  want %+v\n  got  %+v",
						want[k].detector, n, want[k].scenario, want[k], got[k])
				}
			}
		})
	}
}
