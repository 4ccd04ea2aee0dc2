package main

import (
	"fmt"

	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/experiments"
	"imitator/internal/serveload"
)

// serveProbe measures live-query serving against a running PageRank job on
// gweb: the same deterministic load stream twice, once fault-free and once
// with node 1 crashing mid-run (failover). Queries pace through the whole
// run (chaos window included), so the failover entry's percentiles price
// the reads that land while the cluster is detecting, routing around and
// rebuilding the dead node. Latencies are host wall-clock; the job's
// sim_seconds/msg_bytes stay deterministic because serving charges zero
// simulated time.
func serveProbe(opts experiments.Options) ([]benchEntry, error) {
	iters := opts.Iters
	if iters < 2 {
		iters = 2
	}
	g, err := datasets.Load("gweb")
	if err != nil {
		return nil, err
	}
	w := experiments.Workload{Algo: "pagerank", Dataset: "gweb", Iters: iters}

	mk := func() core.Config {
		cfg := core.DefaultConfig(core.EdgeCutMode, opts.Nodes)
		if opts.Workers > 0 {
			cfg.WorkersPerNode = opts.Workers
		}
		// Replicas must stay synced (no selfish opt-out) so failover reads
		// are served from them instead of refused.
		cfg.FT = core.FTConfig{Enabled: true, K: 2, SelfishOpt: false}
		cfg.Recovery = core.RecoverRebirth
		cfg.MaxRebirths = 8
		return cfg
	}
	failover := mk()
	failover.Chaos = []core.ChaosEvent{
		{Kind: core.ChaosCrash, Iteration: iters / 2, Phase: core.FailBeforeBarrier, Nodes: []int{1}},
	}

	var entries []benchEntry
	for _, probe := range []struct {
		id  string
		cfg core.Config
	}{
		{"serve/faultfree", mk()},
		{"serve/failover", failover},
	} {
		h, err := experiments.StartWorkloadOn(w, g, probe.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", probe.id, err)
		}
		load, err := serveload.Run(serveload.Config{
			Queries:     2000,
			Seed:        1,
			NumVertices: g.NumVertices(),
			TopK:        10,
			Done:        h.Done(),
		}, h.Query)
		if err != nil {
			return nil, fmt.Errorf("%s: load: %w", probe.id, err)
		}
		sum, err := h.Wait()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", probe.id, err)
		}
		wall := 0.0
		if load.QPS > 0 {
			wall = float64(load.Answered) / load.QPS
		}
		entries = append(entries, benchEntry{
			ID:              probe.id,
			WallSeconds:     wall,
			SimSeconds:      sum.SimSeconds,
			MsgBytes:        sum.Metrics.TotalBytes(),
			QueriesIssued:   load.Issued,
			QueriesAnswered: load.Answered,
			ReplicaReads:    load.FromReplica,
			Unavailable:     load.Unavailable,
			P50Ms:           load.P50,
			P99Ms:           load.P99,
			MaxMs:           load.Max,
			QPS:             load.QPS,
			MaxStaleness:    load.MaxStaleness,
		})
	}
	return entries, nil
}
