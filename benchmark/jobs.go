package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"imitator/internal/gen"
	"imitator/internal/graph"
	"imitator/internal/partition"
	"imitator/internal/rng"
	"imitator/pkg/imitator"
)

// cluster is the engine instance every graph workload drives: PageRank,
// float64 values and accumulators, through the v1 public API only.
type cluster = imitator.Cluster[float64, float64]

// memSnap is the allocator's running totals; two snapshots bracket a call.
// ReadMemStats stops the world, so it is only ever taken outside a timed
// region (between spans in the traced pass).
type memSnap struct{ mallocs, bytes uint64 }

// readMemClean collects garbage first, so that every repetition starts from
// the same heap: when the collector next runs, and how high the resident set
// climbs, then depend on the repetition alone and not on its predecessors.
func readMemClean() memSnap {
	runtime.GC()
	return readMem()
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc}
}

func (a memSnap) since(b memSnap) memSnap { return memSnap{a.mallocs - b.mallocs, a.bytes - b.bytes} }

// hookLabel is one recovery-phase boundary seen through SetRecoveryHook.
type hookLabel struct {
	phase string
	at    time.Time
}

// jobStats is what one NewCluster + Run leaves behind.
type jobStats struct {
	loadWall, runWall, wall float64 // seconds; wall is NewCluster start to Result
	alloc                   memSnap // whole job
	loadMem, runMem         memSnap // traced jobs only
	hostSpanMS              float64 // first to last recovery hook label, traced jobs only
	replicationFactor       float64
	res                     *imitator.Result[float64]
	cl                      *cluster
}

// job loads and runs one PageRank job. A traced job records the job, load,
// run and recovery-phase spans and reads the allocator between load and run;
// an untraced job does neither. under, when set, runs on the calling
// goroutine while Run executes on another (the serve workload's client).
func (r *run) job(g *imitator.Graph, cfg imitator.Config, id int, traced bool, under func(cl *cluster, runSpan int, done <-chan struct{})) (jobStats, error) {
	var rec *recorder
	if traced {
		rec = r.rec
	}
	var js jobStats
	prog := imitator.NewPageRank(g.NumVertices())
	m0 := readMemClean()
	root := rec.begin("job", -1, id)
	t0 := time.Now()
	ls := rec.begin("core.load", root, id)
	cl, err := imitator.NewCluster(cfg, g, prog)
	rec.end(ls)
	t1 := time.Now()
	if err != nil {
		return js, fmt.Errorf("load: %w", err)
	}
	var labels []hookLabel
	var m1 memSnap
	if traced {
		m1 = readMem()
		cl.SetRecoveryHook(func(phase string) {
			labels = append(labels, hookLabel{phase, time.Now()})
		})
	}
	rs := rec.begin("core.run", root, id)
	t2 := time.Now()
	var res *imitator.Result[float64]
	if under == nil {
		res, err = cl.Run()
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = cl.Run()
		}()
		under(cl, rs, done)
		<-done
	}
	t3 := time.Now()
	rec.end(rs)
	rec.end(root)
	m2 := readMem()
	if err != nil {
		return js, fmt.Errorf("run: %w", err)
	}
	for i := 0; i+1 < len(labels); i++ {
		rec.add("core.recover."+labels[i].phase, labels[i].at, labels[i+1].at, rs, id)
	}
	if n := len(labels); n > 1 {
		js.hostSpanMS = labels[n-1].at.Sub(labels[0].at).Seconds() * 1e3
	}
	js.loadWall, js.runWall, js.wall = t1.Sub(t0).Seconds(), t3.Sub(t2).Seconds(), t3.Sub(t0).Seconds()
	js.alloc = m2.since(m0)
	if traced {
		js.loadMem, js.runMem = m1.since(m0), m2.since(m1)
	}
	js.replicationFactor = cl.ReplicationFactor()
	js.res, js.cl = res, cl
	return js, nil
}

// simIdentity is the part of a job's outcome the simulator promises to
// repeat exactly: any difference between two repetitions of one cell is a
// determinism bug, and counts as a failed job.
type simIdentity struct {
	set       bool
	sim       float64
	bytes     int64
	simMemory int64
}

// checkJob applies the correctness gate to one finished job: final values
// bit-identical to the fault-free FT-off reference, a recovery reported when
// a crash was scheduled, and simulator outputs equal to the cell's first
// repetition.
func (r *run) checkJob(cell string, js jobStats, ref []float64, wantRecovery bool, first *simIdentity) {
	res := js.res
	if at, ok := firstDifference(res.Values, ref); !ok {
		r.failf(cell, "final values differ from the fault-free reference at vertex %d", at)
		return
	}
	if wantRecovery && len(res.Recoveries) == 0 {
		r.failf(cell, "a crash was scheduled but no recovery was reported")
		return
	}
	now := simIdentity{true, res.SimSeconds, res.Metrics.TotalBytes(), res.TotalMemory}
	if !first.set {
		*first = now
	} else if *first != now {
		r.failf(cell, "simulator outputs changed between repetitions: %+v then %+v", *first, now)
	}
}

// firstDifference compares bit for bit; ok is true when the slices match.
func firstDifference(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return min(len(got), len(want)), false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// baseOptions are shared by every graph job. Host parallelism is pinned to
// one: eight simulated nodes time-sharing two cores measure the neighbours'
// scheduler (README "Noise policy"); hostpar.* reports the parallel speed-up.
func (r *run) baseOptions(iters int, vertexCut bool) []imitator.Option {
	opts := []imitator.Option{
		imitator.WithNodes(r.prof.nodes),
		imitator.WithIterations(iters),
		imitator.WithHostParallelism(1),
	}
	if vertexCut {
		opts = append(opts, imitator.WithMode(imitator.VertexCutMode))
	}
	return opts
}

func config(base []imitator.Option, extra ...imitator.Option) imitator.Config {
	return imitator.New(append(base[:len(base):len(base)], extra...)...)
}

// setupGraph makes the workload's input ready, several times over: every
// build is one setup_s sample. All graph workloads share this input so their
// cells compare. The traced pass also times CSR construction and the
// partitioner on their own.
func (r *run) setupGraph(vertexCut bool) (*imitator.Graph, error) {
	cfg := gen.PowerLawConfig{
		NumVertices:     r.prof.vertices,
		NumEdges:        r.prof.edges,
		Alpha:           2.0,
		SelfishFraction: 0.1,
		Seed:            rng.Hash2(r.opt.seed, 1), // --seed fans out: 1 graph, 2 query stream, 4 detector
		Workers:         1,
	}
	root := r.rec.begin("setup", -1, -1)
	defer r.rec.end(root)
	var g *imitator.Graph
	var genMem memSnap
	for i := 0; i < r.prof.setupReps; i++ {
		var m0 memSnap
		if r.traced {
			m0 = readMem()
		}
		s := r.rec.begin("gen.powerlaw", root, -1)
		t0 := time.Now()
		built, err := gen.PowerLaw(cfg)
		d := time.Since(t0).Seconds()
		r.rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("generate graph: %w", err)
		}
		if r.traced {
			genMem = readMem().since(m0)
		}
		g = built
		r.setup = append(r.setup, d)
	}
	if !r.traced {
		return g, nil
	}
	r.m.setFastest("gen.powerlaw.wall_s", r.setup)
	r.m.set("gen.powerlaw.allocs", float64(genMem.mallocs))
	r.m.set("gen.powerlaw.medges_per_s", float64(g.NumEdges())/1e6/fastest(r.setup))
	r.m.set("graph.bytes_per_edge", g.MemoryFootprint().BytesPerEdge)
	if err := r.probeCSR(g, root); err != nil {
		return nil, err
	}
	if err := r.probePartition(g, vertexCut, root); err != nil {
		return nil, err
	}
	return g, nil
}

// probeCSR times graph.NewFromSOA alone, on endpoint arrays copied out of g.
func (r *run) probeCSR(g *imitator.Graph, parent int) error {
	var walls []float64
	var mem memSnap
	for i := 0; i < r.prof.setupReps; i++ {
		m := g.NumEdges()
		src, dst := make([]graph.VertexID, m), make([]graph.VertexID, m)
		for e := 0; e < m; e++ {
			src[e], dst[e] = g.EdgeSrc(e), g.EdgeDst(e)
		}
		m0 := readMem()
		s := r.rec.begin("graph.csr", parent, -1)
		t0 := time.Now()
		_, err := graph.NewFromSOA(g.NumVertices(), src, dst, nil)
		walls = append(walls, time.Since(t0).Seconds())
		r.rec.end(s)
		if err != nil {
			return fmt.Errorf("build CSR: %w", err)
		}
		mem = readMem().since(m0)
	}
	r.m.setFastest("graph.csr.wall_s", walls)
	r.m.set("graph.csr.allocs", float64(mem.mallocs))
	return nil
}

// probePartition times the mode's default partitioner standalone: hash
// edge-cut, or hybrid-cut for vertex-cut.
func (r *run) probePartition(g *imitator.Graph, vertexCut bool, parent int) error {
	var walls []float64
	var stats partition.Stats
	for i := 0; i < r.prof.setupReps; i++ {
		s := r.rec.begin("partition", parent, -1)
		t0 := time.Now()
		if vertexCut {
			vc, err := partition.HybridVertexCut(g, r.prof.nodes, partition.DefaultHybridCutConfig())
			if err != nil {
				return fmt.Errorf("hybrid-cut: %w", err)
			}
			walls = append(walls, time.Since(t0).Seconds())
			stats = vc.Stats(g)
		} else {
			ec, err := partition.HashEdgeCut(g, r.prof.nodes)
			if err != nil {
				return fmt.Errorf("hash edge-cut: %w", err)
			}
			walls = append(walls, time.Since(t0).Seconds())
			stats = ec.Stats(g)
		}
		r.rec.end(s)
	}
	r.m.setFastest("partition.wall_s", walls)
	r.m.set("partition.replication_factor", stats.ReplicationFactor)
	if even := float64(g.NumEdges()) / float64(r.prof.nodes); even > 0 {
		r.m.set("partition.edge_balance", float64(stats.MaxEdgesNode)/even)
	}
	return nil
}

// reference runs the workload's job with fault tolerance off and no fault.
// Its values are what every measured job must reproduce bit for bit, its
// simulated time is the base of sim.ft_overhead_pct, and it warms the heap.
func (r *run) reference(g *imitator.Graph, base []imitator.Option) (jobStats, error) {
	r.attempted++
	js, err := r.job(g, config(base, imitator.WithFTStrategy(imitator.NoRecovery())), -1, false, nil)
	if err != nil {
		return js, fmt.Errorf("reference job: %w", err)
	}
	js.cl = nil // only its values and simulated time are needed; see cellSamples.add
	return js, nil
}

// cellSamples gathers one cell's repetitions.
type cellSamples struct {
	name               string
	walls, runs, alloc []float64 // untraced jobs: job wall, Run wall, bytes allocated
	traced             []jobStats
	last               jobStats
	identity           simIdentity
}

func (c *cellSamples) add(js jobStats, traced bool) {
	js.cl = nil // keep the numbers, not the cluster: two resident at once would double peak_rss_mb
	c.last = js
	if traced {
		c.traced = append(c.traced, js)
		return
	}
	c.walls = append(c.walls, js.wall)
	c.runs = append(c.runs, js.runWall)
	c.alloc = append(c.alloc, float64(js.alloc.bytes))
}

// reportEndToEnd sets the end-to-end metrics every graph workload shares,
// summing over the workload's cells (one cell on all but failover-matrix);
// ops_per_s is the workload's own.
func (r *run) reportEndToEnd(cells []*cellSamples) {
	var wall, alloc, sim, mb float64
	samples := 0
	for _, c := range cells {
		wall += fastest(c.walls)
		alloc += median(c.alloc)
		sim += c.last.res.SimSeconds
		mb += float64(c.last.res.Metrics.TotalBytes()) / 1e6
		samples = len(c.walls)
		r.timings[c.name+".job"] = c.walls
		r.timings[c.name+".run"] = c.runs
	}
	r.m.set("job_wall_s", wall)
	r.m.set("alloc_mb_per_job", alloc/1e6/float64(len(cells)))
	r.m.set("sim_s", sim)
	r.m.set("msg_mb", mb)
	for _, name := range []string{"job_wall_s", "ops_per_s", "alloc_mb_per_job"} {
		r.m.samples[name] = samples
	}
}

// edgeRate is the batch workloads' ops_per_s: edges traversed per second of
// job, |E| x supersteps executed / job wall, summed over cells.
func edgeRate(g *imitator.Graph, cells []*cellSamples) float64 {
	var edges, wall float64
	for _, c := range cells {
		edges += float64(g.NumEdges()) * float64(c.last.res.Iterations)
		wall += fastest(c.walls)
	}
	return edges / wall
}

// reportLayers sets the core.load / core.run / sim / bufpool metrics from the
// traced jobs: wall as the fastest and allocation as the median over all
// traced jobs of the workload, simulator counters as the mean over its cells.
func (r *run) reportLayers(g *imitator.Graph, cells []*cellSamples, refSim float64) {
	var loadWall, runWall, perStep, loadAllocs, loadMB, runAllocs, runMB, plain, tracedWall []float64
	n := float64(len(cells))
	mean := map[string]float64{}
	var recovery float64 // summed, not averaged: every cell's crash is the workload's
	for _, c := range cells {
		plain = append(plain, c.walls...)
		for _, js := range c.traced {
			loadWall = append(loadWall, js.loadWall)
			runWall = append(runWall, js.runWall)
			perStep = append(perStep, js.runWall*1e3/float64(js.res.Iterations))
			loadAllocs = append(loadAllocs, float64(js.loadMem.mallocs))
			loadMB = append(loadMB, float64(js.loadMem.bytes)/1e6)
			runAllocs = append(runAllocs, float64(js.runMem.mallocs))
			runMB = append(runMB, float64(js.runMem.bytes)/1e6)
			tracedWall = append(tracedWall, js.wall)
		}
		res := c.last.res
		met := res.Metrics
		recovery += recoverySeconds(res)
		for name, v := range map[string]float64{
			"core.load.sim_s":              res.LoadSeconds,
			"core.load.ft_extra_replicas":  float64(res.ExtraReplicas),
			"core.load.replication_factor": c.last.replicationFactor,
			"core.run.supersteps":          float64(res.Iterations),
			"core.run.sim_per_superstep_s": res.AvgIterSeconds,
			"core.run.sim_compute_s":       met.ComputeSeconds,
			"core.run.sync_mb":             float64(met.SyncBytes) / 1e6,
			"core.run.ft_mb":               float64(met.FTBytes) / 1e6,
			"core.run.gather_mb":           float64(met.GatherBytes) / 1e6,
			"core.run.activation_mb":       float64(met.ActivationBytes) / 1e6,
			"core.run.ft_msg_ratio":        met.RedundantMsgFraction(),
			"sim.mem_mb":                   float64(res.TotalMemory) / 1e6,
			"bufpool.reuse_ratio":          res.Buffers.ReuseFraction(),
			"core.run.medges_per_s":        float64(g.NumEdges()) * float64(res.Iterations) / 1e6 / fastest(runsOf(c.traced)),
		} {
			mean[name] += v / n
		}
	}
	for name, v := range mean {
		r.m.set(name, v)
	}
	r.m.set("sim.recovery_s", recovery)
	r.m.setFastest("core.load.wall_s", loadWall)
	r.m.setMedian("core.load.allocs", loadAllocs)
	r.m.setMedian("core.load.alloc_mb", loadMB)
	r.m.setFastest("core.run.wall_s", runWall)
	r.m.setMedian("core.run.allocs", runAllocs)
	r.m.setMedian("core.run.alloc_mb", runMB)
	r.m.setFastest("core.run.wall_per_superstep_ms", perStep)
	if refSim > 0 && len(cells) == 1 {
		r.m.set("sim.ft_overhead_pct", math.Max(0, 100*(cells[0].last.res.SimSeconds-refSim)/refSim))
	}
	// Traced and untraced jobs alternate in the traced pass, so both sides
	// saw the same machine. Below the noise the difference can come out
	// negative; that reads as "no measurable overhead", 0.
	if base := fastest(plain); base > 0 {
		r.m.set("trace.overhead_pct", math.Max(0, 100*(fastest(tracedWall)-base)/base))
	}
}

func runsOf(jobs []jobStats) []float64 {
	out := make([]float64, len(jobs))
	for i, js := range jobs {
		out[i] = js.runWall
	}
	return out
}

func recoverySeconds(res *imitator.Result[float64]) float64 {
	var s float64
	for _, rep := range res.Recoveries {
		s += rep.TotalSeconds()
	}
	return s
}

// probeHostpar runs the job of cfg three times at the host's full
// parallelism, the one place the benchmark lets the engine use every core:
// reported, never gated. It returns the fastest job's wall seconds.
func (r *run) probeHostpar(g *imitator.Graph, base []imitator.Option, extra imitator.Option) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	var walls []float64
	for i := 0; i < 3; i++ {
		r.attempted++
		js, err := r.job(g, config(base, extra, imitator.WithHostParallelism(runtime.NumCPU())), -2, false, nil)
		if err != nil {
			return 0, fmt.Errorf("hostpar job: %w", err)
		}
		walls = append(walls, js.wall)
	}
	return fastest(walls), nil
}

// steady is ec-steady and vc-steady: PageRank under Replication K=1 with the
// selfish-vertex optimisation, no fault.
func (r *run) steady(vertexCut bool) error {
	g, err := r.setupGraph(vertexCut)
	if err != nil {
		return err
	}
	base := r.baseOptions(r.prof.steadyIters, vertexCut)
	ref, err := r.reference(g, base)
	if err != nil {
		return err
	}
	ft := imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1), imitator.ReplicationSelfish(true)))
	var parallelWall float64
	if r.traced {
		r.openWindow()
		if parallelWall, err = r.probeHostpar(g, base, ft); err != nil {
			return err
		}
	}
	cell := &cellSamples{name: "replication"}
	r.measure(func(rep int) {
		traced := r.traced && rep%2 == 0
		r.attempted++
		js, err := r.job(g, config(base, ft), rep, traced, nil)
		if err != nil {
			r.failf(cell.name, "%v", err)
			return
		}
		r.checkJob(cell.name, js, ref.res.Values, false, &cell.identity)
		cell.add(js, traced)
	})
	if cell.last.res == nil {
		return fmt.Errorf("no job of %s finished", r.opt.workload)
	}
	cells := []*cellSamples{cell}
	if !r.traced {
		r.reportEndToEnd(cells)
		r.m.set("ops_per_s", edgeRate(g, cells))
		return nil
	}
	r.reportLayers(g, cells, ref.res.SimSeconds)
	r.m.set("hostpar.job_wall_s", parallelWall)
	r.m.set("hostpar.speedup", fastest(cell.walls)/parallelWall)
	return r.layerProbes()
}
