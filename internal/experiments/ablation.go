package experiments

import (
	"fmt"

	"imitator/internal/core"
)

// AblationMirrorPlacement quantifies the §4.2 design choice: the greedy
// balanced mirror assignment versus naive first-replica placement. Balanced
// mirrors spread recovery work evenly, so Migration's slowest node does
// less and recovery time drops; the ablation reruns single-failure recovery
// under both policies.
func AblationMirrorPlacement(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "wiki"
	if o.Small {
		ds = "gweb"
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
	t := &Table{
		ID:     "ablation-mirror",
		Title:  fmt.Sprintf("Mirror placement ablation (PageRank/%s, %d nodes)", ds, o.Nodes),
		Header: []string{"placement", "rebirth (s)", "migration (s)", "max promoted/node"},
		Notes:  "balanced placement is the paper's §4.2 greedy; 'first' concentrates recovery work",
	}
	for _, p := range []struct {
		label string
		mp    core.MirrorPlacement
	}{
		{"balanced", core.MirrorBalanced},
		{"first", core.MirrorFirst},
	} {
		mk := func(rk core.RecoveryKind) core.Config {
			cfg := withREP(baseEdgeCut(o), 1)
			cfg.FT.MirrorPlacement = p.mp
			cfg.Recovery = rk
			cfg.Chaos = oneFailure(w.Iters)
			return cfg
		}
		sr, err := RunWorkload(w, mk(core.RecoverRebirth))
		if err != nil {
			return nil, err
		}
		sm, err := RunWorkload(w, mk(core.RecoverMigration))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			p.label,
			f3(lastRecovery(sr).TotalSeconds()),
			f3(lastRecovery(sm).TotalSeconds()),
			fmt.Sprintf("%d", lastRecovery(sm).RecoveredVertices),
		})
	}
	return t, nil
}

// AblationPositionalRecovery quantifies the §5.1.2 design choice: recovery
// messages addressed by array position (contention-free placement) versus
// the id-resolution cost a naive design pays. We measure the reconstruction
// phase of Rebirth, whose simulated cost covers placement, and report the
// record counts so the reader can scale the alternative: id-addressed
// reconstruction needs an extra hash probe per record plus a global
// build-then-link phase that cannot start until every record has arrived.
func AblationPositionalRecovery(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "ljournal"
	if o.Small {
		ds = "gweb"
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
	cfg := withREP(baseEdgeCut(o), 1)
	cfg.Chaos = oneFailure(w.Iters)
	s, err := RunWorkload(w, cfg)
	if err != nil {
		return nil, err
	}
	r := lastRecovery(s)
	t := &Table{
		ID:     "ablation-positional",
		Title:  fmt.Sprintf("Positional recovery accounting (PageRank/%s)", ds),
		Header: []string{"metric", "value"},
		Notes:  "records land at precomputed positions; no coordination during placement (§5.1.2)",
	}
	t.Rows = append(t.Rows,
		[]string{"recovered vertices", fmt.Sprintf("%d", r.RecoveredVertices)},
		[]string{"recovered edges", fmt.Sprintf("%d", r.RecoveredEdges)},
		[]string{"reload (s)", f3(r.ReloadSeconds)},
		[]string{"reconstruct (s)", f3(r.ReconstructSeconds)},
		[]string{"replay (s)", f3(r.ReplaySeconds)},
		[]string{"recovery messages", fmt.Sprintf("%d", s.Metrics.RecoveryMsgs)},
		[]string{"recovery bytes", fmt.Sprintf("%d", s.Metrics.RecoveryBytes)},
	)
	return t, nil
}
