package experiments

import (
	"fmt"

	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/ftmodel"
	"imitator/internal/partition"
)

// Table1Datasets reproduces Table 1 / Table 4: the dataset inventory, with
// both the paper-scale and the scaled sizes.
func Table1Datasets(o Options) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Datasets (paper scale -> scaled reproduction)",
		Header: []string{"graph", "paper |V|", "paper |E|", "ours |V|", "ours |E|", "|E|/|V|", "selfish%"},
	}
	for _, name := range datasets.Names() {
		d := datasets.Catalog()[name]
		g, err := datasets.Load(name)
		if err != nil {
			return nil, err
		}
		s := g.ComputeStats()
		t.Rows = append(t.Rows, []string{
			name, d.PaperVertices, d.PaperEdges,
			fmt.Sprintf("%d", s.NumVertices), fmt.Sprintf("%d", s.NumEdges),
			fmt.Sprintf("%.1f", s.AvgDeg),
			fmt.Sprintf("%.1f%%", 100*float64(s.NumSelfish)/float64(s.NumVertices)),
		})
	}
	return t, nil
}

// Fig2aCheckpointCost reproduces Fig 2a: the simulated cost of writing one
// checkpoint next to the average cost of one iteration, per workload.
func Fig2aCheckpointCost(o Options) (*Table, error) {
	o = o.orDefaults()
	t := &Table{
		ID:     "fig2a",
		Title:  "Cost of one checkpoint vs one iteration (seconds, simulated)",
		Header: []string{"workload", "iteration", "checkpoint", "ratio"},
		Notes:  "paper: one checkpoint costs >= 55% of an iteration even in the best case",
	}
	for _, w := range EdgeCutWorkloads(o) {
		cfg := withCKPT(baseEdgeCut(o), 1, false)
		s, err := RunWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		ckptOnce := 0.0
		if st := s.Strategy; st.PersistCount > 0 {
			ckptOnce = st.PersistSeconds / float64(st.PersistCount)
		}
		ratio := 0.0
		if s.AvgIterSeconds > 0 {
			ratio = ckptOnce / s.AvgIterSeconds
		}
		t.Rows = append(t.Rows, []string{
			w.Algo + "/" + w.Dataset, f3(s.AvgIterSeconds), f3(ckptOnce), fmt.Sprintf("%.2fx", ratio),
		})
	}
	return t, nil
}

// Fig2bCheckpointIntervals reproduces Fig 2b: total runtime overhead of
// checkpointing at intervals 1, 2 and 4 for PageRank on LJournal.
func Fig2bCheckpointIntervals(o Options) (*Table, error) {
	o = o.orDefaults()
	w := Workload{Algo: "pagerank", Dataset: "ljournal", Iters: 2 * o.Iters}
	if o.Small {
		w = Workload{Algo: "pagerank", Dataset: "gweb", Iters: 6}
	}
	base, err := RunWorkload(w, baseEdgeCut(o))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig2b",
		Title:  fmt.Sprintf("Checkpoint overhead vs interval (PageRank/%s, %d iters)", w.Dataset, w.Iters),
		Header: []string{"config", "total (s)", "overhead"},
		Notes:  "paper: intervals 1/2/4 cost +89%/+51%/+26%",
	}
	t.Rows = append(t.Rows, []string{"no checkpoint", f3(base.SimSeconds), "-"})
	for _, interval := range []int{1, 2, 4} {
		s, err := RunWorkload(w, withCKPT(baseEdgeCut(o), interval, false))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("interval %d", interval), f3(s.SimSeconds), pct(overhead(base.SimSeconds, s.SimSeconds)),
		})
	}
	return t, nil
}

// Fig2cCheckpointRecovery reproduces Fig 2c: the checkpoint-recovery
// breakdown (reload / reconstruct / replay) against one iteration's cost.
func Fig2cCheckpointRecovery(o Options) (*Table, error) {
	o = o.orDefaults()
	w := Workload{Algo: "pagerank", Dataset: "ljournal", Iters: 2 * o.Iters}
	if o.Small {
		w = Workload{Algo: "pagerank", Dataset: "gweb", Iters: 6}
	}
	t := &Table{
		ID:     "fig2c",
		Title:  fmt.Sprintf("Checkpoint recovery breakdown (PageRank/%s)", w.Dataset),
		Header: []string{"interval", "reload", "reconstruct", "replay", "total", "one iteration"},
		Notes:  "paper: reload from persistent storage dominates; longer intervals inflate replay",
	}
	for _, interval := range []int{1, 2, 4} {
		cfg := withCKPT(baseEdgeCut(o), interval, false)
		cfg.Chaos = oneFailure(w.Iters)
		s, err := RunWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		r := lastRecovery(s)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", interval),
			f3(r.ReloadSeconds), f3(r.ReconstructSeconds), f3(r.ReplaySeconds),
			f3(r.TotalSeconds()), f3(s.AvgIterSeconds),
		})
	}
	return t, nil
}

// Fig3Replicas reproduces Fig 3a/3b: the fraction of vertices without
// replicas (split normal/selfish) and the extra replicas fault tolerance
// adds, per dataset under hash edge-cut. Partition statistics need no
// engine run, so this figure uses the paper's actual 50-node cluster.
func Fig3Replicas(o Options) (*Table, error) {
	o = o.orDefaults()
	nodes := 50
	if o.Small {
		nodes = 8
	}
	t := &Table{
		ID:     "fig3",
		Title:  fmt.Sprintf("Vertices without replicas and FT replica overhead (hash edge-cut, %d nodes)", nodes),
		Header: []string{"graph", "no-replica total", "  of which selfish", "extra replicas (sans selfish)"},
		Notes:  "paper: only GWeb and LJournal exceed 10%; extra replicas < 0.15% everywhere",
	}
	names := []string{"gweb", "ljournal", "wiki", "syn-gl", "dblp", "roadca"}
	if o.Small {
		names = []string{"gweb", "dblp"}
	}
	for _, name := range names {
		g, err := datasets.Load(name)
		if err != nil {
			return nil, err
		}
		ec, err := partition.HashEdgeCut(g, nodes)
		if err != nil {
			return nil, err
		}
		s := ec.Stats(g)
		nv := float64(g.NumVertices())
		extraNonSelfish := s.NoReplicaTotal - s.NoReplicaSelfish
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f%%", 100*float64(s.NoReplicaTotal)/nv),
			fmt.Sprintf("%.2f%%", 100*float64(s.NoReplicaSelfish)/nv),
			fmt.Sprintf("%.3f%%", 100*float64(extraNonSelfish)/float64(s.ReplicationFactor*nv)),
		})
	}
	return t, nil
}

// Fig7RuntimeOverheadEdgeCut reproduces Fig 7: runtime overhead of REP and
// CKPT over the unprotected baseline, per workload (edge-cut engine).
func Fig7RuntimeOverheadEdgeCut(o Options) (*Table, error) {
	o = o.orDefaults()
	t := &Table{
		ID:     "fig7",
		Title:  "Runtime overhead over baseline (edge-cut)",
		Header: []string{"workload", "base (s)", "REP", "CKPT", "CKPT-mem"},
		Notes:  "paper: REP < 3.7% everywhere; CKPT +65%..+449%; CKPT-mem +33%..+163%",
	}
	for _, w := range EdgeCutWorkloads(o) {
		base, err := RunWorkload(w, baseEdgeCut(o))
		if err != nil {
			return nil, err
		}
		rep, err := RunWorkload(w, withREP(baseEdgeCut(o), 1))
		if err != nil {
			return nil, err
		}
		ck, err := RunWorkload(w, withCKPT(baseEdgeCut(o), 1, false))
		if err != nil {
			return nil, err
		}
		ckm, err := RunWorkload(w, withCKPT(baseEdgeCut(o), 1, true))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			w.Algo + "/" + w.Dataset, f3(base.SimSeconds),
			pct(overhead(base.SimSeconds, rep.SimSeconds)),
			pct(overhead(base.SimSeconds, ck.SimSeconds)),
			pct(overhead(base.SimSeconds, ckm.SimSeconds)),
		})
	}
	return t, nil
}

// Fig8SelfishOptimization reproduces Fig 8a/8b: extra replicas and
// redundant messages with and without the selfish-vertex optimization.
func Fig8SelfishOptimization(o Options) (*Table, error) {
	o = o.orDefaults()
	t := &Table{
		ID:     "fig8",
		Title:  "FT replica and redundant-message overhead, selfish optimization on/off",
		Header: []string{"workload", "extra replicas (sans selfish)", "extra (total)", "redundant msgs w/", "redundant w/o"},
		Notes:  "paper: extra non-selfish replicas <= 0.12%; with the optimization, message overhead drops below 0.1%",
	}
	for _, w := range EdgeCutWorkloads(o) {
		cfgOn := withREP(baseEdgeCut(o), 1)
		cfgOff := cfgOn
		cfgOff.FT.SelfishOpt = false
		on, err := RunWorkload(w, cfgOn)
		if err != nil {
			return nil, err
		}
		off, err := RunWorkload(w, cfgOff)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			w.Algo + "/" + w.Dataset,
			fmt.Sprintf("%.3f%%", 100*float64(on.ExtraReplicas-on.ExtraReplicasSelfish)/float64(on.TotalPresences)),
			fmt.Sprintf("%.3f%%", 100*float64(on.ExtraReplicas)/float64(on.TotalPresences)),
			fmt.Sprintf("%.3f%%", 100*on.Metrics.RedundantMsgFraction()),
			fmt.Sprintf("%.3f%%", 100*off.Metrics.RedundantMsgFraction()),
		})
	}
	return t, nil
}

// recoveryTimes runs one workload under each recovery strategy and returns
// (ckpt, rebirth, migration) total recovery seconds.
func recoveryTimes(o Options, w Workload, mode core.Mode) (ck, reb, mig core.RecoveryReport, err error) {
	mk := func() core.Config {
		if mode == core.EdgeCutMode {
			return baseEdgeCut(o)
		}
		return baseVertexCut(o)
	}
	run := func(cfg core.Config) (core.RecoveryReport, error) {
		cfg.Chaos = oneFailure(w.Iters)
		s, err := RunWorkload(w, cfg)
		if err != nil {
			return core.RecoveryReport{}, err
		}
		return lastRecovery(s), nil
	}
	if ck, err = run(withCKPT(mk(), 1, false)); err != nil {
		return
	}
	if reb, err = run(withREP(mk(), 1)); err != nil {
		return
	}
	cfg := withREP(mk(), 1)
	cfg.Recovery = core.RecoverMigration
	mig, err = run(cfg)
	return
}

// Table2RecoveryEdgeCut reproduces Table 2: recovery time of checkpoint,
// Rebirth and Migration per workload on the edge-cut engine.
func Table2RecoveryEdgeCut(o Options) (*Table, error) {
	o = o.orDefaults()
	t := &Table{
		ID:     "table2",
		Title:  "Recovery time (seconds, simulated) — edge-cut",
		Header: []string{"workload", "CKPT", "Rebirth", "Migration", "recovered vertices"},
		Notes:  "paper: Rebirth 3.9-6.9x and Migration 3.6-17.7x faster than CKPT",
	}
	for _, w := range EdgeCutWorkloads(o) {
		ck, reb, mig, err := recoveryTimes(o, w, core.EdgeCutMode)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			w.Algo + "/" + w.Dataset,
			f3(ck.TotalSeconds()), f3(reb.TotalSeconds()), f3(mig.TotalSeconds()),
			fmt.Sprintf("%d", reb.RecoveredVertices),
		})
	}
	return t, nil
}

// Fig9RecoveryScalability reproduces Fig 9: recovery time against cluster
// size for both replication strategies.
func Fig9RecoveryScalability(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "wiki"
	sizes := []int{4, 8, 12, 16}
	if o.Small {
		ds = "gweb"
		sizes = []int{4, 8}
	}
	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("Recovery scalability (PageRank/%s)", ds),
		Header: []string{"nodes", "rebirth (s)", "migration (s)"},
		Notes:  "paper: both strategies speed up as more nodes share the reload",
	}
	for _, n := range sizes {
		opt := o
		opt.Nodes = n
		w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
		cfgR := withREP(baseEdgeCut(opt), 1)
		cfgR.Chaos = oneFailure(w.Iters)
		sr, err := RunWorkload(w, cfgR)
		if err != nil {
			return nil, err
		}
		cfgM := withREP(baseEdgeCut(opt), 1)
		cfgM.Recovery = core.RecoverMigration
		cfgM.Chaos = oneFailure(w.Iters)
		sm, err := RunWorkload(w, cfgM)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			f3(lastRecovery(sr).TotalSeconds()),
			f3(lastRecovery(sm).TotalSeconds()),
		})
	}
	return t, nil
}

// Fig10Fennel reproduces Fig 10: Fennel's replication factor against hash
// partitioning, and Imitator's overhead under Fennel.
func Fig10Fennel(o Options) (*Table, error) {
	o = o.orDefaults()
	names := []string{"gweb", "ljournal", "wiki"}
	if o.Small {
		names = []string{"gweb"}
	}
	t := &Table{
		ID:     "fig10",
		Title:  "Fennel vs hash partitioning (edge-cut)",
		Header: []string{"graph", "RF hash", "RF fennel", "REP overhead under fennel"},
		Notes:  "paper: fennel RF 1.61/3.84/5.09; overhead stays 1.8%-4.7%",
	}
	for _, name := range names {
		g, err := datasets.Load(name)
		if err != nil {
			return nil, err
		}
		hashEC, err := partition.HashEdgeCut(g, o.Nodes)
		if err != nil {
			return nil, err
		}
		fenEC, err := partition.FennelEdgeCut(g, o.Nodes)
		if err != nil {
			return nil, err
		}
		w := Workload{Algo: "pagerank", Dataset: name, Iters: o.Iters}
		baseCfg := baseEdgeCut(o)
		baseCfg.Partitioner = core.PartFennel
		base, err := RunWorkload(w, baseCfg)
		if err != nil {
			return nil, err
		}
		repCfg := withREP(baseCfg, 1)
		rep, err := RunWorkload(w, repCfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", hashEC.Stats(g).ReplicationFactor),
			fmt.Sprintf("%.2f", fenEC.Stats(g).ReplicationFactor),
			pct(overhead(base.SimSeconds, rep.SimSeconds)),
		})
	}
	return t, nil
}

// Fig11MultiFailureEdgeCut reproduces Fig 11: overhead and recovery time
// when tolerating 1, 2 and 3 simultaneous failures (edge-cut).
func Fig11MultiFailureEdgeCut(o Options) (*Table, error) {
	return multiFailure(o, core.EdgeCutMode, "fig11", "wiki")
}

// Fig15MultiFailureVertexCut reproduces Fig 15 (vertex-cut).
func Fig15MultiFailureVertexCut(o Options) (*Table, error) {
	return multiFailure(o, core.VertexCutMode, "fig15", "twitter")
}

func multiFailure(o Options, mode core.Mode, id, ds string) (*Table, error) {
	o = o.orDefaults()
	if o.Small {
		ds = "gweb"
	}
	mk := func() core.Config {
		if mode == core.EdgeCutMode {
			return baseEdgeCut(o)
		}
		return baseVertexCut(o)
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
	base, err := RunWorkload(w, mk())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Tolerating k failures (%s, PageRank/%s)", mode, ds),
		Header: []string{"k", "runtime overhead", "rebirth (s)", "migration (s)"},
		Notes:  "paper: overhead < 10% (edge-cut) / < 4.7% (vertex-cut) even at k=3",
	}
	for k := 1; k <= 3; k++ {
		rep, err := RunWorkload(w, withREP(mk(), k))
		if err != nil {
			return nil, err
		}
		cfgR := withREP(mk(), k)
		cfgR.Chaos = nFailures(w.Iters, k)
		sr, err := RunWorkload(w, cfgR)
		if err != nil {
			return nil, err
		}
		cfgM := withREP(mk(), k)
		cfgM.Recovery = core.RecoverMigration
		cfgM.Chaos = nFailures(w.Iters, k)
		sm, err := RunWorkload(w, cfgM)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			pct(overhead(base.SimSeconds, rep.SimSeconds)),
			f3(lastRecovery(sr).TotalSeconds()),
			f3(lastRecovery(sm).TotalSeconds()),
		})
	}
	return t, nil
}

// Table3MemoryEdgeCut reproduces Table 3: memory footprint without FT and
// with FT/1..3 (edge-cut, PageRank on Wiki).
func Table3MemoryEdgeCut(o Options) (*Table, error) {
	return memoryTable(o, core.EdgeCutMode, "table3", "wiki", nil)
}

// Table7MemoryVertexCut reproduces Table 7: memory by partitioning
// algorithm and FT level (vertex-cut, PageRank on Twitter).
func Table7MemoryVertexCut(o Options) (*Table, error) {
	parts := []core.PartitionerKind{core.PartRandom, core.PartGrid, core.PartHybrid}
	return memoryTable(o, core.VertexCutMode, "table7", "twitter", parts)
}

func memoryTable(o Options, mode core.Mode, id, ds string, parts []core.PartitionerKind) (*Table, error) {
	o = o.orDefaults()
	if o.Small {
		ds = "gweb"
	}
	if parts == nil {
		parts = []core.PartitionerKind{0} // mode default
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Memory footprint (%s, PageRank/%s)", mode, ds),
		Header: []string{"partitioner", "config", "total", "max node", "vs w/o FT"},
		Notes:  "paper: FT memory overhead is modest (edge-cut) to negligible (vertex-cut)",
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: 2}
	for _, part := range parts {
		mk := func() core.Config {
			var cfg core.Config
			if mode == core.EdgeCutMode {
				cfg = baseEdgeCut(o)
			} else {
				cfg = baseVertexCut(o)
			}
			if part != 0 {
				cfg.Partitioner = part
			}
			return cfg
		}
		base, err := RunWorkload(w, mk())
		if err != nil {
			return nil, err
		}
		label := "default"
		if part != 0 {
			label = part.String()
		}
		t.Rows = append(t.Rows, []string{label, "w/o FT", mb(base.TotalMemory), mb(base.MaxMemory), "-"})
		for k := 1; k <= 3; k++ {
			s, err := RunWorkload(w, withREP(mk(), k))
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				label, fmt.Sprintf("FT/%d", k), mb(s.TotalMemory), mb(s.MaxMemory),
				pct(overhead(float64(base.TotalMemory), float64(s.TotalMemory))),
			})
		}
	}
	return t, nil
}

// Fig12CaseStudy reproduces Fig 12: the execution timeline of PageRank on
// LJournal under each fault-tolerance setting, with one failure injected
// between iterations 6 and 7.
func Fig12CaseStudy(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "ljournal"
	iters := 2 * o.Iters
	failIter := 6
	if o.Small {
		ds = "gweb"
		iters = 8
		failIter = 3
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: iters}
	t := &Table{
		ID:     "fig12",
		Title:  fmt.Sprintf("Case study: PageRank/%s, failure after iteration %d", ds, failIter),
		Header: []string{"config", "total (s)", "recovery (s)", "iterations run"},
		Notes:  "paper: Migration recovers in ~2.6 s, Rebirth ~8.8 s, CKPT/4 ~45 s incl. replaying 2 iterations",
	}
	add := func(label string, cfg core.Config, fail bool) error {
		if fail {
			cfg.Chaos = []core.ChaosEvent{{Kind: core.ChaosCrash, Iteration: failIter, Phase: core.FailAfterBarrier, Nodes: []int{1}}}
		}
		s, err := RunWorkload(w, cfg)
		if err != nil {
			return err
		}
		recTime := 0.0
		for _, r := range s.Recoveries {
			recTime += r.TotalSeconds()
		}
		iterCount := 0
		for _, ev := range s.Trace {
			if ev.Kind == core.TraceIteration {
				iterCount++
			}
		}
		t.Rows = append(t.Rows, []string{label, f3(s.SimSeconds), f3(recTime), fmt.Sprintf("%d", iterCount)})
		return nil
	}
	if err := add("BASE", baseEdgeCut(o), false); err != nil {
		return nil, err
	}
	if err := add("REP", withREP(baseEdgeCut(o), 1), false); err != nil {
		return nil, err
	}
	if err := add("CKPT/4", withCKPT(baseEdgeCut(o), 4, false), false); err != nil {
		return nil, err
	}
	if err := add("REP+Rebirth", withREP(baseEdgeCut(o), 1), true); err != nil {
		return nil, err
	}
	cfgMig := withREP(baseEdgeCut(o), 1)
	cfgMig.Recovery = core.RecoverMigration
	if err := add("REP+Migration", cfgMig, true); err != nil {
		return nil, err
	}
	if err := add("CKPT/4+fail", withCKPT(baseEdgeCut(o), 4, false), true); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig13RuntimeOverheadVertexCut reproduces Fig 13: REP vs CKPT overhead on
// the vertex-cut engine across real and synthetic graphs.
func Fig13RuntimeOverheadVertexCut(o Options) (*Table, error) {
	o = o.orDefaults()
	t := &Table{
		ID:     "fig13",
		Title:  "Runtime overhead over baseline (vertex-cut, PageRank)",
		Header: []string{"graph", "base (s)", "REP", "CKPT"},
		Notes:  "paper: REP 1.5%-3.3%; CKPT +135%..+531%",
	}
	for _, ds := range VertexCutDatasets(o) {
		w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
		base, err := RunWorkload(w, baseVertexCut(o))
		if err != nil {
			return nil, err
		}
		rep, err := RunWorkload(w, withREP(baseVertexCut(o), 1))
		if err != nil {
			return nil, err
		}
		ck, err := RunWorkload(w, withCKPT(baseVertexCut(o), 1, false))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds, f3(base.SimSeconds),
			pct(overhead(base.SimSeconds, rep.SimSeconds)),
			pct(overhead(base.SimSeconds, ck.SimSeconds)),
		})
	}
	return t, nil
}

// Table5RecoveryVertexCut reproduces Table 5: recovery times per dataset on
// the vertex-cut engine.
func Table5RecoveryVertexCut(o Options) (*Table, error) {
	o = o.orDefaults()
	t := &Table{
		ID:     "table5",
		Title:  "Recovery time (seconds, simulated) — vertex-cut, PageRank",
		Header: []string{"graph", "CKPT", "Rebirth", "Migration"},
		Notes:  "paper: Rebirth 1.7-7.7x and Migration 1.3-7.2x faster than CKPT",
	}
	for _, ds := range VertexCutDatasets(o) {
		w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
		ck, reb, mig, err := recoveryTimes(o, w, core.VertexCutMode)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ds, f3(ck.TotalSeconds()), f3(reb.TotalSeconds()), f3(mig.TotalSeconds()),
		})
	}
	return t, nil
}

// Fig14PartitioningVertexCut reproduces Fig 14: replication factor,
// overhead and recovery time for Random-, Grid- and Hybrid-cut.
func Fig14PartitioningVertexCut(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "twitter"
	if o.Small {
		ds = "gweb"
	}
	g, err := datasets.Load(ds)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig14",
		Title:  fmt.Sprintf("Partitioning algorithms (vertex-cut, PageRank/%s)", ds),
		Header: []string{"partitioner", "RF", "REP overhead", "rebirth (s)", "migration (s)"},
		Notes:  "paper: hybrid RF 5.56 < grid 8.34 < random 15.96; lower RF means fewer FT candidates",
	}
	for _, part := range []core.PartitionerKind{core.PartRandom, core.PartGrid, core.PartHybrid} {
		var rf float64
		switch part {
		case core.PartRandom:
			vc, err := partition.RandomVertexCut(g, o.Nodes)
			if err != nil {
				return nil, err
			}
			rf = vc.Stats(g).ReplicationFactor
		case core.PartGrid:
			vc, err := partition.GridVertexCut(g, o.Nodes)
			if err != nil {
				return nil, err
			}
			rf = vc.Stats(g).ReplicationFactor
		case core.PartHybrid:
			vc, err := partition.HybridVertexCut(g, o.Nodes, partition.DefaultHybridCutConfig())
			if err != nil {
				return nil, err
			}
			rf = vc.Stats(g).ReplicationFactor
		}
		w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
		mk := func() core.Config {
			cfg := baseVertexCut(o)
			cfg.Partitioner = part
			return cfg
		}
		base, err := RunWorkload(w, mk())
		if err != nil {
			return nil, err
		}
		rep, err := RunWorkload(w, withREP(mk(), 1))
		if err != nil {
			return nil, err
		}
		cfgR := withREP(mk(), 1)
		cfgR.Chaos = oneFailure(w.Iters)
		sr, err := RunWorkload(w, cfgR)
		if err != nil {
			return nil, err
		}
		cfgM := withREP(mk(), 1)
		cfgM.Recovery = core.RecoverMigration
		cfgM.Chaos = oneFailure(w.Iters)
		sm, err := RunWorkload(w, cfgM)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			part.String(), fmt.Sprintf("%.2f", rf),
			pct(overhead(base.SimSeconds, rep.SimSeconds)),
			f3(lastRecovery(sr).TotalSeconds()),
			f3(lastRecovery(sm).TotalSeconds()),
		})
	}
	return t, nil
}

// Table6CommunicationVertexCut reproduces Table 6: execution time and
// communication volume per partitioning and FT level.
func Table6CommunicationVertexCut(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "twitter"
	if o.Small {
		ds = "gweb"
	}
	t := &Table{
		ID:     "table6",
		Title:  fmt.Sprintf("Execution time and communication per FT level (vertex-cut, PageRank/%s)", ds),
		Header: []string{"partitioner", "config", "time (s)", "comm (MB)", "comm overhead"},
		Notes:  "paper: FT comm overhead grows with k but stays far below partitioning differences",
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
	for _, part := range []core.PartitionerKind{core.PartRandom, core.PartGrid, core.PartHybrid} {
		mk := func() core.Config {
			cfg := baseVertexCut(o)
			cfg.Partitioner = part
			return cfg
		}
		base, err := RunWorkload(w, mk())
		if err != nil {
			return nil, err
		}
		baseComm := float64(base.Metrics.TotalBytes())
		t.Rows = append(t.Rows, []string{part.String(), "w/o FT", f3(base.SimSeconds),
			fmt.Sprintf("%.1f", baseComm/1e6), "-"})
		for k := 1; k <= 3; k++ {
			s, err := RunWorkload(w, withREP(mk(), k))
			if err != nil {
				return nil, err
			}
			comm := float64(s.Metrics.TotalBytes())
			t.Rows = append(t.Rows, []string{
				part.String(), fmt.Sprintf("FT/%d", k), f3(s.SimSeconds),
				fmt.Sprintf("%.1f", comm/1e6), pct(overhead(baseComm, comm)),
			})
		}
	}
	return t, nil
}

// YoungModelEfficiency reproduces the §6.11 analysis using measured
// per-interval costs from the simulated cluster.
func YoungModelEfficiency(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "twitter"
	if o.Small {
		ds = "gweb"
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
	base, err := RunWorkload(w, baseVertexCut(o))
	if err != nil {
		return nil, err
	}
	rep, err := RunWorkload(w, withREP(baseVertexCut(o), 1))
	if err != nil {
		return nil, err
	}
	ck, err := RunWorkload(w, withCKPT(baseVertexCut(o), 1, false))
	if err != nil {
		return nil, err
	}
	ckCost := 0.0
	if st := ck.Strategy; st.PersistCount > 0 {
		ckCost = st.PersistSeconds / float64(st.PersistCount)
	}
	repCost := (rep.SimSeconds - base.SimSeconds) / float64(o.Iters)
	if repCost <= 0 {
		repCost = 1e-4 // replication overhead can vanish at this scale
	}
	// Recovery costs measured from single-failure runs.
	_, rebRec, migRec, err := recoveryTimes(o, w, core.VertexCutMode)
	if err != nil {
		return nil, err
	}
	_ = migRec
	ckFail := withCKPT(baseVertexCut(o), 1, false)
	ckFail.Chaos = oneFailure(w.Iters)
	ckFailRun, err := RunWorkload(w, ckFail)
	if err != nil {
		return nil, err
	}
	cmp, err := ftmodel.Compare(
		ftmodel.Scenario{CostPerInterval: ckCost, MTBF: ftmodel.PaperMTBF,
			RecoverySeconds: lastRecovery(ckFailRun).TotalSeconds()},
		ftmodel.Scenario{CostPerInterval: repCost, MTBF: ftmodel.PaperMTBF,
			RecoverySeconds: rebRec.TotalSeconds()},
	)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "young",
		Title:  "Young's-model optimal interval and efficiency (§6.11)",
		Header: []string{"scheme", "cost/interval (s)", "optimal interval (s)", "efficiency"},
		Notes:  "paper: CKPT 9768 s / 98.44%; REP 623 s / 99.90%",
	}
	t.Rows = append(t.Rows, []string{"CKPT", f3(ckCost), fmt.Sprintf("%.0f", cmp.CkptInterval),
		fmt.Sprintf("%.2f%%", 100*cmp.CkptEfficiency)})
	t.Rows = append(t.Rows, []string{"REP", f3(repCost), fmt.Sprintf("%.0f", cmp.RepInterval),
		fmt.Sprintf("%.2f%%", 100*cmp.RepEfficiency)})
	return t, nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID  string
	Run func(Options) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", Table1Datasets},
		{"fig2a", Fig2aCheckpointCost},
		{"fig2b", Fig2bCheckpointIntervals},
		{"fig2c", Fig2cCheckpointRecovery},
		{"fig3", Fig3Replicas},
		{"fig7", Fig7RuntimeOverheadEdgeCut},
		{"fig8", Fig8SelfishOptimization},
		{"table2", Table2RecoveryEdgeCut},
		{"fig9", Fig9RecoveryScalability},
		{"fig10", Fig10Fennel},
		{"fig11", Fig11MultiFailureEdgeCut},
		{"table3", Table3MemoryEdgeCut},
		{"fig12", Fig12CaseStudy},
		{"fig13", Fig13RuntimeOverheadVertexCut},
		{"table5", Table5RecoveryVertexCut},
		{"fig14", Fig14PartitioningVertexCut},
		{"fig15", Fig15MultiFailureVertexCut},
		{"table6", Table6CommunicationVertexCut},
		{"table7", Table7MemoryVertexCut},
		{"young", YoungModelEfficiency},
		{"ftcompare", FTCompare},
		{"ablation-mirror", AblationMirrorPlacement},
		{"ablation-positional", AblationPositionalRecovery},
		{"membership", Membership},
		{"scale", Scale},
	}
}
