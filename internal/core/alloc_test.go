package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"imitator/internal/datasets"
	"imitator/internal/gen"
	"imitator/internal/graph"
)

// benchmarkGraph is the repository benchmark's input (benchmark/README.md).
func benchmarkGraph(tb testing.TB) *graph.Graph {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		NumVertices: 64000, NumEdges: 923000, Alpha: 2.0, SelfishFraction: 0.1, Seed: 1, Workers: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// manualStep returns a function that runs the next superstep + barrier +
// commit of cl by hand, numbering supersteps from 0.
func manualStep[V, A any](tb testing.TB, cl *Cluster[V, A]) func() {
	iter := 0
	return func() {
		cl.superstep(iter)
		cl.barrier()
		cl.commit(iter)
		iter++
	}
}

// TestLoadAllocBudget pins what NewCluster allocates on the benchmark graph,
// in count and in bytes. Load sizes every per-vertex list (presence lists,
// local topology, replica tables, mirror full state) by a count pass and
// writes it into a few exactly-sized arrays (the per-node topology CSR and
// table and edge arenas), and every per-slot table (hot, topology offsets,
// slab handles, role slabs, id index) is made once at its final size, so a
// load makes a few hundred allocations: 332 edge-cut, 471 vertex-cut, 461
// checkpoint and 345 edge-cut-k2-serve when the budgets were set, each
// budget about 10 % above. One per-vertex make or append-grown list anywhere
// in load costs 64 k allocations and breaks the count; a per-slot table that
// regrows by append, a per-slot slice header (a topology of three per slot
// was 17 MB on edge-cut, the replica tables' and mirror states' seven 14 MB),
// or a stored list of the unweighted graph's unit weights costs more than
// 10 % in bytes and breaks the byte budget. The DFS keeps the buffers it is
// given, so the edge-ckpt files are sub-slices of one exact arena and each
// metadata snapshot is one exact buffer; a scratch encode buffer copied by
// the DFS cost 7 MB at vertex-cut and 4.4 at checkpoint.
func TestLoadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	if testing.Short() {
		t.Skip("builds the 923 k-edge benchmark graph")
	}
	g := benchmarkGraph(t)
	checkpoint := DefaultConfig(EdgeCutMode, 8) // as failover-matrix's checkpoint cell
	checkpoint.Recovery, checkpoint.Checkpoint = RecoverCheckpoint, CheckpointConfig{Interval: 2}
	for _, tc := range []struct {
		name    string
		cfg     Config
		mallocs uint64
		mb      uint64 // measured 39.1 / 50.7 / 59.6 / 49.1 MB
	}{
		// Replication K=1, as ec-steady / vc-steady.
		{"edge-cut", DefaultConfig(EdgeCutMode, 8), 365, 43},
		{"vertex-cut", DefaultConfig(VertexCutMode, 8), 520, 56},
		{"checkpoint", checkpoint, 510, 66},
		{"edge-cut-k2-serve", serveLoadConfig(), 380, 54},
	} {
		tc.cfg.HostParallelism = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewCluster[float64, float64](tc.cfg, g, fakePR{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > tc.mallocs {
			t.Errorf("%s: NewCluster made %d allocations, budget %d", tc.name, n, tc.mallocs)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > tc.mb*1e6 {
			t.Errorf("%s: NewCluster allocated %.1f MB, budget %d MB", tc.name, float64(b)/1e6, tc.mb)
		}
	}
}

// TestFirstSuperstepAllocBudget pins, in bytes, what the first superstep
// after NewCluster allocates on the benchmark graph. Under vertex-cut it
// builds the scatter route and the gather partials; under both engines it
// sizes every wire buffer. The compute phase's prologue reserves each round
// buffer for the larger of its gather and sync rounds, and under vertex-cut
// each notice buffer for the most notices the route can send, so no buffer
// grows by doubling through the superstep: vertex-cut allocated 35.4 MB with
// doubling notices and 21.0 with doubling round buffers, edge-cut 9.9 with
// doubling round buffers. An always-active program's route has no position
// column. Measured 14.3 MB vertex-cut and 2.5 edge-cut, budgets about 10 %
// above.
func TestFirstSuperstepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	if testing.Short() {
		t.Skip("builds the 923 k-edge benchmark graph")
	}
	g := benchmarkGraph(t)
	for _, tc := range []struct {
		mode     Mode // as ec-steady / vc-steady
		budgetMB float64
	}{
		{EdgeCutMode, 2.8},
		{VertexCutMode, 16},
	} {
		cfg := DefaultConfig(tc.mode, 8)
		cfg.HostParallelism = 1
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		step := manualStep(t, cl)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		cl.stopWorkers()
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		t.Logf("first %s superstep allocated %.2f MB", tc.mode, mb)
		if mb > tc.budgetMB {
			t.Errorf("first %s superstep allocated %.2f MB, budget %.1f MB", tc.mode, mb, tc.budgetMB)
		}
	}
}

// TestSteadyStateSuperstepAllocFree is the tentpole regression gate: once
// the pool, mailboxes and routing tables are warm, a full superstep
// (compute + sync + receive + barrier + commit) performs zero heap
// allocations, at WorkersPerNode 1 and at 3, where the cost-bearing phases
// walk several chunks. Any new per-round make/append-to-nil on the hot path
// shows up here as a non-zero count. Besides fakePR it runs an
// int32 program (the engine's go.shape.int32 instantiation), a float64
// program that reads edge weights and source ids on a weighted graph, and
// fakeSSSP on that graph, whose moving frontier drives the
// non-always-active paths (activation flags and vertex-cut notices).
func TestSteadyStateSuperstepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	road, err := gen.Road(gen.RoadConfig{Width: 20, Height: 20, ShortcutFrac: 0.1, WeightMu: 0.4, WeightSigma: 1.2, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		t.Run(mode.String(), func(t *testing.T) {
			tiny := datasets.Tiny(400, 2400, 4242)
			for _, workers := range []int{1, 3} {
				checkSteadyAllocFree(t, mode, workers, tiny, Program[float64, float64](fakePR{}))
				checkSteadyAllocFree(t, mode, workers, tiny, Program[int32, int32](fakeMin{}))
				checkSteadyAllocFree(t, mode, workers, road, Program[float64, float64](&fakeWeighted{}))
				checkSteadyAllocFree(t, mode, workers, road, Program[float64, float64](fakeSSSP{}))
			}
		})
	}
}

// checkSteadyAllocFree fails t if a warm superstep of prog on g allocates
// with the given WorkersPerNode.
func checkSteadyAllocFree[V, A any](t *testing.T, mode Mode, workers int, g *graph.Graph, prog Program[V, A]) {
	t.Helper()
	cfg := DefaultConfig(mode, 4)
	cfg.MaxIter = 1 // stepped manually below
	cfg.WorkersPerNode = workers
	cl, err := NewCluster(cfg, g, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.stopWorkers()
	step := manualStep(t, cl)
	// Warm the pool, mailboxes and routing tables.
	for i := 0; i < 3; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(5, step); avg != 0 {
		t.Errorf("%v %s workers=%d steady-state superstep allocates %.1f times per iteration, want 0", mode, prog.Name(), workers, avg)
	}
}

// TestPersistAllocBudget pins what a warm superstep followed by
// persistSuperstep allocates under the two persisting strategies: a
// checkpoint every superstep, and the superstep log. The DFS keeps what it
// is given, so each node's file is one exact copy; the encode buffers come
// from the pool and go back to it. A checkpoint writer that kept its pooled
// buffer made 51 allocations a step instead of 11.
func TestPersistAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	// A collection empties the runtime's per-P caches, and a channel hand-off
	// after one allocates; the DFS keeps every file, so collections land in
	// the measured steps.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := datasets.Tiny(400, 2400, 4242)
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		for _, tc := range []struct {
			rec    RecoveryKind
			budget float64
		}{{RecoverCheckpoint, 11}, {RecoverLogged, 9}} {
			cfg := DefaultConfig(mode, 4)
			cfg.Recovery, cfg.Checkpoint = tc.rec, CheckpointConfig{Interval: 1}
			cfg.HostParallelism = 1 // nodes draw pooled buffers in one order
			cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
			if err != nil {
				t.Fatal(err)
			}
			step := manualStep(t, cl)
			persist := func() {
				step()
				cl.iter++
				cl.persistSuperstep()
			}
			for range 3 {
				persist()
			}
			if avg := testing.AllocsPerRun(5, persist); avg > tc.budget {
				t.Errorf("%v %v: superstep + persist allocates %.1f times, budget %.0f", mode, tc.rec, avg, tc.budget)
			}
			cl.stopWorkers()
		}
	}
}

// fakeMin is an always-active min-label program over int32.
type fakeMin struct{}

func (fakeMin) Name() string              { return "fake-min" }
func (fakeMin) AlwaysActive() bool        { return true }
func (fakeMin) CanRecomputeSelfish() bool { return false }
func (fakeMin) Init(id graph.VertexID, _ VertexInfo) (int32, bool) {
	return int32(id), true
}
func (fakeMin) Gather(_ graph.VertexID, in InEdges[int32]) int32 {
	low := in.Value(0)
	for k := 1; k < in.Len(); k++ {
		low = min(low, in.Value(k))
	}
	return low
}
func (fakeMin) Merge(a, b int32) int32 { return min(a, b) }
func (fakeMin) Apply(_ graph.VertexID, _ VertexInfo, old, acc int32, has bool, _ int) (int32, bool) {
	if has {
		return min(old, acc), true
	}
	return old, true
}
func (fakeMin) ValueCodec() Codec[int32] { return Int32Codec{} }
func (fakeMin) AccCodec() Codec[int32]   { return Int32Codec{} }

// fakeWeighted folds weight × value plus a term in the source id, so it
// reads every per-edge accessor but Info.
type fakeWeighted struct{}

func (*fakeWeighted) Name() string              { return "fake-weighted" }
func (*fakeWeighted) AlwaysActive() bool        { return true }
func (*fakeWeighted) CanRecomputeSelfish() bool { return false }
func (*fakeWeighted) Init(graph.VertexID, VertexInfo) (float64, bool) {
	return 1, true
}
func (*fakeWeighted) Gather(_ graph.VertexID, in InEdges[float64]) float64 {
	sum := 0.0
	for k := 0; k < in.Len(); k++ {
		sum += float64(in.Weight(k)*in.Value(k)) + float64(in.Src(k)%7)
	}
	return sum
}
func (*fakeWeighted) Merge(a, b float64) float64 { return a + b }
func (*fakeWeighted) Apply(_ graph.VertexID, _ VertexInfo, _, acc float64, _ bool, _ int) (float64, bool) {
	return 1 / (1 + acc), true
}
func (*fakeWeighted) ValueCodec() Codec[float64] { return Float64Codec{} }
func (*fakeWeighted) AccCodec() Codec[float64]   { return Float64Codec{} }

// benchPR is PageRank-shaped with a pointer receiver, as every shipped
// program has (a value receiver adds a wrapper call per interface call):
// Gather sums each source's value over its out-degree.
type benchPR struct{}

func (*benchPR) Name() string              { return "bench-pagerank" }
func (*benchPR) AlwaysActive() bool        { return true }
func (*benchPR) CanRecomputeSelfish() bool { return true }
func (*benchPR) Init(graph.VertexID, VertexInfo) (float64, bool) {
	return 1, true
}
func (*benchPR) Gather(_ graph.VertexID, in InEdges[float64]) float64 {
	sum := 0.0
	for k := 0; k < in.Len(); k++ {
		if d := in.Info(k).OutDeg; d != 0 {
			sum += in.Value(k) / float64(d)
		}
	}
	return sum
}
func (*benchPR) Merge(a, b float64) float64 { return a + b }
func (*benchPR) Apply(_ graph.VertexID, _ VertexInfo, _, acc float64, _ bool, _ int) (float64, bool) {
	return 0.15 + 0.85*acc, true
}
func (*benchPR) ValueCodec() Codec[float64] { return Float64Codec{} }
func (*benchPR) AccCodec() Codec[float64]   { return Float64Codec{} }

// BenchmarkSuperstep times one warm superstep + barrier + commit on the
// benchmark graph as ec-steady / vc-steady configure it (8 nodes, Replication
// K=1, host parallelism 1), so the steady loop profiles with one command:
//
//	go test -run '^$' -bench Superstep/vertex-cut -cpuprofile cpu.prof ./internal/core
func BenchmarkSuperstep(b *testing.B) {
	g := benchmarkGraph(b)
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig(mode, 8)
			cfg.HostParallelism = 1
			cfg.MaxIter = 1 // stepped manually below
			cl, err := NewCluster[float64, float64](cfg, g, &benchPR{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.stopWorkers()
			step := manualStep(b, cl)
			for i := 0; i < 3; i++ {
				step() // warm the pool, mailboxes and routing tables
			}
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}

// BenchmarkLoad times NewCluster on the benchmark graph — partition, replica
// creation, mirrors, local topology, edge checkpoints: the core.load layer of
// setup_s — in the load shapes of the benchmark's workloads, all on 8 nodes at
// host parallelism 1: ec-steady's edge-cut and vc-steady's vertex-cut at
// Replication K=1, and serve-failover's edge-cut at K=2 with no selfish
// optimization and serving on. A shape profiles with one command:
//
//	go test -run '^$' -bench Load/vertex-cut -cpuprofile cpu.prof ./internal/core
func BenchmarkLoad(b *testing.B) {
	g := benchmarkGraph(b)
	for _, sh := range []struct {
		name string
		cfg  Config
	}{
		{"edge-cut", DefaultConfig(EdgeCutMode, 8)},
		{"vertex-cut", DefaultConfig(VertexCutMode, 8)},
		{"edge-cut-k2-serve", serveLoadConfig()},
	} {
		sh.cfg.HostParallelism = 1
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewCluster[float64, float64](sh.cfg, g, &benchPR{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serveLoadConfig is serve-failover's load shape: edge-cut on 8 nodes at
// Replication K=2, no selfish optimization, serving on.
func serveLoadConfig() Config {
	cfg := DefaultConfig(EdgeCutMode, 8)
	cfg.FT, cfg.Serve.Enabled = FTConfig{K: 2}, true
	return cfg
}

// recoveryConfig configures one recovery of the given kind on the benchmark
// graph as failover-matrix does (8 nodes, edge-cut, Replication K=1,
// checkpoints every two supersteps, logs compacted every four, host
// parallelism 1): node 1 crashes before the barrier of superstep 4.
func recoveryConfig(kind RecoveryKind) Config {
	cfg := DefaultConfig(EdgeCutMode, 8)
	cfg.HostParallelism = 1
	cfg.MaxIter = 5
	cfg.Recovery = kind
	cfg.Checkpoint = CheckpointConfig{Interval: 2}
	cfg.Logged = LoggedConfig{CompactEvery: 4}
	cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 4, Phase: FailBeforeBarrier, Nodes: []int{1}}}
	return cfg
}

// runRecovery loads g under recoveryConfig(kind) and runs the job, calling
// start at the recovery pass's first phase label. It fails tb unless exactly
// one recovery ran.
func runRecovery(tb testing.TB, g *graph.Graph, kind RecoveryKind, start func()) {
	tb.Helper()
	cl, err := NewCluster[float64, float64](recoveryConfig(kind), g, &benchPR{})
	if err != nil {
		tb.Fatal(err)
	}
	started := false
	cl.SetRecoveryHook(func(string) {
		if !started {
			started = true
			start()
		}
	})
	res, err := cl.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		tb.Fatalf("%d recoveries, want 1", len(res.Recoveries))
	}
}

// BenchmarkRecovery times one recovery per strategy on the benchmark graph
// (recoveryConfig). Load and the supersteps before the crash are untimed; the
// timer runs from the pass's first phase label to the end of the job, i.e.
// the recovery plus the re-executed superstep (checkpoint: every superstep
// since the snapshot). So a recovery profiles with one command:
//
//	go test -run '^$' -bench Recovery/migration -cpuprofile cpu.prof ./internal/core
func BenchmarkRecovery(b *testing.B) {
	g := benchmarkGraph(b)
	for _, kind := range []RecoveryKind{RecoverRebirth, RecoverMigration, RecoverCheckpoint, RecoverLogged} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				runRecovery(b, g, kind, b.StartTimer)
				b.StopTimer()
			}
		})
	}
}

// TestRecoveryAllocBudget pins what one recovery allocates on the benchmark
// graph, in count and in bytes, over BenchmarkRecovery's timed span (the pass
// and the re-executed supersteps). Every recovery staging loop sizes each
// destination buffer by a count pass, a round's records decode into one
// exactly-sized arena, edges attach in one batched topology rebuild, replica
// tables and mirror edge lists live in per-node arenas that grow at most once
// per round of records, and Migration keeps its bookkeeping in per-node rows
// indexed by slot position. So Rebirth makes tens of allocations and
// Migration about 1.1 k (17.3 and 74.5 MB). A
// staging buffer that regrows by append costs about 1.25 times its size
// again and breaks the byte budget; a per-record decode costs tens of
// thousands of allocations and breaks the count.
func TestRecoveryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	if testing.Short() {
		t.Skip("builds the 923 k-edge benchmark graph")
	}
	g := benchmarkGraph(t)
	for _, tc := range []struct {
		kind    RecoveryKind
		mallocs uint64
		mb      float64 // measured 17.3 / 74.5 / 4.9 / 5.1 MB
	}{
		{RecoverRebirth, 100, 19},
		{RecoverMigration, 1200, 83},
		{RecoverCheckpoint, 250, 5.5},
		{RecoverLogged, 100, 5.6},
	} {
		var before, after runtime.MemStats
		runRecovery(t, g, tc.kind, func() { runtime.ReadMemStats(&before) })
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > tc.mallocs {
			t.Errorf("%v: recovery made %d allocations, budget %d", tc.kind, n, tc.mallocs)
		}
		if b := float64(after.TotalAlloc - before.TotalAlloc); b > tc.mb*1e6 {
			t.Errorf("%v: recovery allocated %.1f MB, budget %.1f MB", tc.kind, b/1e6, tc.mb)
		}
	}
}

// TestCodecAllocBudgets pins the hot wire-codec paths to zero allocations
// when appending into a buffer with capacity.
func TestCodecAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	fc := Float64Codec{}
	buf := make([]byte, 0, 64)
	if avg := testing.AllocsPerRun(100, func() {
		buf = fc.Append(buf[:0], 3.14159)
	}); avg != 0 {
		t.Errorf("Float64Codec.Append allocates %.1f/op, want 0", avg)
	}
	enc := fc.Append(nil, 2.71828)
	if avg := testing.AllocsPerRun(100, func() {
		if _, _, err := fc.Read(enc); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Float64Codec.Read allocates %.1f/op, want 0", avg)
	}

	table := &replicaTable{
		nodes:    []int16{1, 2, 3},
		pos:      []int32{10, 20, 30},
		ftOnly:   []bool{false, false, true},
		mirrorOf: []int16{2},
	}
	rec := make([]byte, 0, 256)
	s := &hot[float64]{id: 42, flags: flagMaster, masterNode: 3, masterPos: 7, inDeg: 5, outDeg: 2,
		value: 3.14, lastActivate: true, lastActivateIter: 9}
	if avg := testing.AllocsPerRun(100, func() {
		rec = encodeRecoveryRecord(rec[:0], fc, 7, s, table, nil)
	}); avg != 0 {
		t.Errorf("encodeRecoveryRecord allocates %.1f/op into a warm buffer, want 0", avg)
	}
}
