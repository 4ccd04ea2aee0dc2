package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"imitator/internal/rng"
	"imitator/internal/serveload"
	"imitator/pkg/imitator"
)

// sampleEvery is the share of queries that get a span of their own in the
// traced pass; every query is counted in its kind's latency samples.
const sampleEvery = 1024

// answered is what the traced pass keeps of one answer so it can be checked,
// after the run, against the values published at the epoch it declared.
type answered struct {
	epoch  int
	vertex imitator.VertexID
	value  float64
}

// client is the serve workload's one closed-loop caller: it waits for each
// answer before sending the next query, with no pacing, from Run start to
// Run end. Queries and answers cross the wire codec as a remote client's
// would, and that round trip is what a latency sample times.
type client struct {
	issued, refused int
	errored         int
	firstErr        error
	lat             [imitator.QueryNeighbors + 1][]float64 // microseconds, by query kind
	toVerify        []answered                             // traced jobs only
	perRunQPS       []float64
}

func (c *client) drive(r *run, g *imitator.Graph, cl *cluster, traced bool, runSpan, job int, done <-chan struct{}) {
	load, err := serveload.NewGen(serveload.Config{
		Queries:     1, // the stream is open-ended here; Gen only needs a valid budget
		Seed:        rng.Hash2(r.opt.seed, 2),
		NumVertices: g.NumVertices(),
	})
	if err != nil {
		c.fail(err)
		return
	}
	var rec *recorder
	if traced {
		rec = r.rec
	}
	var buf []byte
	start := time.Now()
	ok := 0
	for n := 0; ; n++ {
		select {
		case <-done:
			c.perRunQPS = append(c.perRunQPS, float64(ok)/time.Since(start).Seconds())
			return
		default:
		}
		q := load.Next()
		sp := -1
		if n%sampleEvery == 0 {
			sp = rec.begin("serve.query."+q.Kind.String(), runSpan, job)
		}
		t0 := time.Now()
		buf = imitator.EncodeQuery(buf[:0], q)
		wq, err := imitator.DecodeQuery(buf)
		var ans imitator.Answer
		if err == nil {
			ans, err = cl.Query(wq)
		}
		if err == nil {
			buf = imitator.EncodeAnswer(buf[:0], ans)
			ans, err = imitator.DecodeAnswer(buf)
		}
		lat := time.Since(t0)
		if sp >= 0 {
			rec.end(sp)
		}
		c.issued++
		switch {
		case err == nil:
			ok++
			c.lat[q.Kind] = append(c.lat[q.Kind], float64(lat.Nanoseconds())/1e3)
			if traced {
				c.keep(ans)
			}
		case errors.Is(err, imitator.ErrVertexUnavailable), errors.Is(err, imitator.ErrStaleRead):
			c.refused++
		default:
			c.fail(err)
		}
	}
}

func (c *client) fail(err error) {
	c.errored++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *client) keep(ans imitator.Answer) {
	switch ans.Kind {
	case imitator.QueryValue:
		c.toVerify = append(c.toVerify, answered{ans.Epoch, ans.Vertex, ans.Value})
	case imitator.QueryTopK:
		for _, e := range ans.TopK {
			c.toVerify = append(c.toVerify, answered{ans.Epoch, e.Vertex, e.Value})
		}
	}
}

// verify checks the kept answers against the engine's own per-epoch history
// and returns how many disagree. It empties the list.
func (c *client) verify(cl *cluster) (wrong int) {
	epochs := map[int][]float64{}
	for _, a := range c.toVerify {
		vals, seen := epochs[a.epoch]
		if !seen {
			vals = cl.EpochValues(a.epoch)
			epochs[a.epoch] = vals
		}
		if int(a.vertex) >= len(vals) || math.Float64bits(vals[a.vertex]) != math.Float64bits(a.value) {
			wrong++
		}
	}
	c.toVerify = c.toVerify[:0]
	return wrong
}

// serveFailover keeps a K=2 job resident and queried while it runs and while
// node 1 crashes and is rebuilt half way: reads go on beside the superstep
// writes (snapshot publish, replica routing), so a serving gain that slows
// the engine shows in this workload's job_wall_s, and the reverse in
// ops_per_s (queries answered per second).
func (r *run) serveFailover() error {
	g, err := r.setupGraph(false)
	if err != nil {
		return err
	}
	base := r.baseOptions(r.prof.serveIters, false)
	ref, err := r.reference(g, base)
	if err != nil {
		return err
	}
	// Selfish optimisation off: every replica stays synced, so reads of the
	// dead node's vertices are served from replicas instead of refused.
	ft := imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(2), imitator.ReplicationSelfish(false)))
	crash := imitator.WithFailures(imitator.Crash(r.prof.serveFailAt, imitator.FailBeforeBarrier, 1))
	plain := config(base, ft, crash, imitator.WithServe())
	// History costs one value array per epoch, so only traced jobs keep it.
	checked := config(base, ft, crash, imitator.WithServe(imitator.ServeKeepHistory()))

	var unloaded []float64
	if r.traced {
		r.openWindow()
		for i := 0; i < 2; i++ {
			r.attempted++
			js, err := r.job(g, plain, -3-i, false, nil)
			if err != nil {
				return fmt.Errorf("unloaded serve job: %w", err)
			}
			unloaded = append(unloaded, js.runWall)
		}
	}

	cell := &cellSamples{name: "serve"}
	cli := &client{}
	var loads []float64 // NewCluster wall: the resident server's time to ready
	var epochs int
	r.measure(func(rep int) {
		traced := r.traced && rep%2 == 0
		cfg := plain
		if traced {
			cfg = checked
		}
		before := cli.issued
		r.attempted++
		js, err := r.job(g, cfg, rep, traced, func(cl *cluster, runSpan int, done <-chan struct{}) {
			cli.drive(r, g, cl, traced, runSpan, rep, done)
		})
		r.attempted += cli.issued - before
		if err != nil {
			r.failf(cell.name, "%v", err)
			return
		}
		if traced {
			if wrong := cli.verify(js.cl); wrong > 0 {
				r.failed += wrong - 1 // failf counts one
				r.failf(cell.name, "%d answers differ from the values published at their epoch", wrong)
			}
			epochs = len(js.cl.PublishedEpochs())
		}
		r.checkJob(cell.name, js, ref.res.Values, true, &cell.identity)
		loads = append(loads, js.loadWall)
		cell.add(js, traced)
	})
	if cell.last.res == nil {
		return fmt.Errorf("no job of serve-failover finished")
	}
	if bad := cli.refused + cli.errored; bad > 0 {
		r.failed += bad - 1 // failf counts one
		r.failf("query", "%d queries refused, %d errored (first error: %v)", cli.refused, cli.errored, cli.firstErr)
	}

	cells := []*cellSamples{cell}
	if !r.traced {
		// job_wall_s is Run under query load; bringing the server up
		// (NewCluster) is part of making it ready, so it counts as set-up.
		r.reportEndToEnd(cells)
		r.m.setFastest("job_wall_s", cell.runs)
		r.m.set("ops_per_s", slices.Max(cli.perRunQPS))
		r.m.samples["ops_per_s"] = len(cli.perRunQPS)
		r.timings["serve.qps"] = cli.perRunQPS
		ready := median(loads)
		for i := range r.setup {
			r.setup[i] += ready
		}
		return nil
	}
	r.reportLayers(g, cells, 0)
	r.reportServe(cli, cell, epochs, unloaded)
	return r.layerProbes()
}

// reportServe sets the serve.* metrics of the traced pass.
func (r *run) reportServe(cli *client, cell *cellSamples, epochs int, unloaded []float64) {
	var all []float64
	for kind, name := range map[imitator.QueryKind]string{
		imitator.QueryValue: "value", imitator.QueryTopK: "topk", imitator.QueryNeighbors: "neighbors",
	} {
		r.m.setMedian("serve."+name+".p50_us", cli.lat[kind])
		all = append(all, cli.lat[kind]...)
	}
	sort.Float64s(all)
	r.m.set("serve.queries_per_s", slices.Max(cli.perRunQPS))
	for name, p := range map[string]float64{"serve.p50_us": 0.5, "serve.p99_us": 0.99, "serve.p999_us": 0.999} {
		// Too few samples beyond the percentile: it stays unset and reads 0.
		if v, ok := percentile(all, p); ok {
			r.m.set(name, v)
			r.m.samples[name] = len(all)
		}
	}
	if len(all) > 0 {
		r.m.set("serve.max_us", all[len(all)-1])
	}
	if st := cell.last.res.Serve; st != nil && st.Queries > 0 {
		r.m.set("serve.replica_read_ratio", float64(st.FromReplica)/float64(st.Queries))
		r.m.set("serve.refused_unavailable", float64(st.Unavailable))
		r.m.set("serve.refused_stale", float64(st.StaleRejected))
		r.m.set("serve.max_staleness", float64(st.MaxStaleness))
	}
	r.m.set("serve.epochs_published", float64(epochs))
	if base := fastest(unloaded); base > 0 {
		r.m.set("serve.job_slowdown_ratio", fastest(append(runsOf(cell.traced), cell.runs...))/base)
	}
}
