package main

import (
	"fmt"

	"imitator/pkg/imitator"
)

// failoverMatrix crashes node 1 before the barrier of superstep failAt and
// lets each of the four FT strategies recover: one round is one job per
// strategy. Load, persistence and recovery are most of the work here and
// steady supersteps little, the mirror image of ec-steady; it is also where
// the paper's promise that recovery reproduces the failure-free result bit
// for bit is checked for every strategy.
func (r *run) failoverMatrix() error {
	g, err := r.setupGraph(false)
	if err != nil {
		return err
	}
	base := r.baseOptions(r.prof.failIters, false)
	ref, err := r.reference(g, base)
	if err != nil {
		return err
	}
	strategies := map[string]imitator.FTStrategy{
		"rebirth":    imitator.Replication(imitator.ReplicationK(1)),
		"migration":  imitator.Migration(imitator.ReplicationK(1)),
		"checkpoint": imitator.Checkpoint(2),
		"logged":     imitator.LoggedRecovery(imitator.LoggedCompactEvery(4)),
	}
	crash := imitator.WithFailures(imitator.Crash(r.prof.failAt, imitator.FailBeforeBarrier, 1))
	cells := make([]*cellSamples, len(recoverKinds))
	for i, kind := range recoverKinds {
		cells[i] = &cellSamples{name: kind}
	}
	r.measure(func(rep int) {
		traced := r.traced && rep%2 == 0
		for i, c := range cells {
			r.attempted++
			cfg := config(base, imitator.WithFTStrategy(strategies[c.name]), crash)
			js, err := r.job(g, cfg, rep*len(cells)+i, traced, nil)
			if err != nil {
				r.failf(c.name, "%v", err)
				continue
			}
			r.checkJob(c.name, js, ref.res.Values, true, &c.identity)
			c.add(js, traced)
		}
	})
	for _, c := range cells {
		if c.last.res == nil {
			return fmt.Errorf("no %s job of failover-matrix finished", c.name)
		}
	}
	if !r.traced {
		r.reportEndToEnd(cells)
		r.m.set("ops_per_s", edgeRate(g, cells))
		return nil
	}
	r.reportLayers(g, cells, 0)
	for _, c := range cells {
		r.reportRecovery(c)
	}
	return r.layerProbes()
}

// reportRecovery sets one strategy's core.recover.* and core.persist.*
// metrics from its traced jobs.
func (r *run) reportRecovery(c *cellSamples) {
	res := c.last.res
	p := "core.recover." + c.name + "."
	var reload, reconstruct, replay, wire float64
	for _, rep := range res.Recoveries {
		reload += rep.ReloadSeconds
		reconstruct += rep.ReconstructSeconds
		replay += rep.ReplaySeconds
		wire += float64(rep.Bytes) / 1e6
	}
	r.m.set(p+"sim_s", recoverySeconds(res))
	r.m.set(p+"reload_sim_s", reload)
	r.m.set(p+"reconstruct_sim_s", reconstruct)
	r.m.set(p+"replay_sim_s", replay)
	r.m.set(p+"wire_mb", wire)
	var spans, walls []float64
	for _, js := range c.traced {
		spans = append(spans, js.hostSpanMS)
		walls = append(walls, js.wall)
	}
	r.m.setFastest(p+"host_span_ms", spans)
	r.m.setFastest(p+"job_wall_s", walls)
	if c.name == "checkpoint" || c.name == "logged" {
		p := "core.persist." + c.name + "."
		r.m.set(p+"sim_per_superstep_s", res.Strategy.PersistSeconds/float64(res.Iterations))
		r.m.set(p+"dfs_write_mb", float64(res.Metrics.DFSWriteBytes)/1e6)
	}
}
