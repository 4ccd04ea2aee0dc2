package experiments

import (
	"fmt"

	"imitator/internal/core"
)

// FTCompare races the four fault-tolerance strategies on the same workload
// under the standard mid-run crash of node 1: per-superstep persistence
// overhead (snapshots or logs), total recovery time, and how many survivor
// supersteps each strategy throws away. Logged recovery's selling point is
// the last column — ReplayIters stays 0 because only the reborn node replays
// its own log chain (failure-confined recovery, arXiv:1601.06496).
func FTCompare(o Options) (*Table, error) {
	o = o.orDefaults()
	ds := "wiki"
	if o.Small {
		ds = "gweb"
	}
	w := Workload{Algo: "pagerank", Dataset: ds, Iters: o.Iters}
	t := &Table{
		ID:    "ftcompare",
		Title: fmt.Sprintf("FT-strategy comparison (PageRank/%s, crash of node 1 mid-run)", ds),
		Header: []string{"strategy", "persist/superstep (s)", "persisted",
			"recovery (s)", "survivor replay iters", "log replay steps"},
		Notes: "logged recovery is failure-confined: survivors replay zero supersteps",
	}
	base, err := RunWorkload(w, baseEdgeCut(o))
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"replication", withREP(baseEdgeCut(o), 1)},
		{"migration", func() core.Config {
			c := withREP(baseEdgeCut(o), 1)
			c.Recovery = core.RecoverMigration
			return c
		}()},
		{"checkpoint", withCKPT(baseEdgeCut(o), 1, false)},
		{"logged", withLogged(baseEdgeCut(o), 4)},
	}
	for _, c := range configs {
		cfg := c.cfg
		cfg.Chaos = oneFailure(w.Iters)
		s, err := RunWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		st := s.Strategy
		perStep := st.PersistSeconds / float64(o.Iters)
		if st.PersistCount == 0 {
			// Replication pays at replica-sync time, not superstep end:
			// charge its overhead as runtime delta against the FT-off base.
			perStep = (s.SimSeconds - base.SimSeconds - lastRecovery(s).TotalSeconds()) / float64(o.Iters)
		}
		rec := lastRecovery(s)
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.4f", perStep),
			mb(st.PersistedBytes),
			f3(rec.TotalSeconds()),
			fmt.Sprintf("%d", rec.ReplayIters),
			fmt.Sprintf("%d", rec.LogReplaySupersteps),
		})
	}
	return t, nil
}
