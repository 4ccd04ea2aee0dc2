package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"imitator/internal/core"
	"imitator/internal/experiments"
)

// The -json mode measures the engine's host-side performance — wall clock
// and heap allocations — on the Fig 7 / Fig 13 workloads plus an isolated
// steady-state superstep probe, and writes a machine-readable report. The
// report also records simulated seconds and message bytes per workload:
// those must stay bit-for-bit identical across engine optimizations, so a
// diff of two reports separates "faster" from "changed the semantics".
//
// Trajectory workflow: run `bench -json old.json` before an optimization,
// re-run with `-json new.json -baseline old.json` after; the new report
// embeds the old one's results for side-by-side comparison.

// benchEntry is one measured workload.
type benchEntry struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`

	// Invariants: identical across engine-internal optimizations.
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	MsgBytes   int64   `json:"msg_bytes,omitempty"`

	// Steady-state probe: per-superstep deltas between a short and a long
	// run of the same job, which cancels load/partitioning costs.
	Supersteps         int     `json:"supersteps,omitempty"`
	AllocsPerSuperstep float64 `json:"allocs_per_superstep,omitempty"`
	WallPerSuperstep   float64 `json:"wall_seconds_per_superstep,omitempty"`

	// FT-strategy probe (ftcompare/* entries): persistence overhead and
	// recovery cost under the standard mid-run crash of node 1. Logged
	// recovery is failure-confined, so its survivor_replay_iters stays 0
	// (omitted) while log_replay_supersteps counts the reborn node's chain.
	PersistPerSuperstep float64 `json:"persist_seconds_per_superstep,omitempty"`
	RecoverySeconds     float64 `json:"recovery_seconds,omitempty"`
	SurvivorReplayIters int     `json:"survivor_replay_iters,omitempty"`
	LogReplaySteps      int     `json:"log_replay_supersteps,omitempty"`

	// Serve probe (serve/* entries): a deterministic live-query stream
	// against a running job — fault-free vs a mid-run crash (failover).
	// Latency percentiles are host wall-clock milliseconds; max_staleness
	// is the largest epoch lag any answer declared.
	QueriesIssued   int     `json:"queries_issued,omitempty"`
	QueriesAnswered int     `json:"queries_answered,omitempty"`
	ReplicaReads    int     `json:"replica_reads,omitempty"`
	Unavailable     int     `json:"unavailable,omitempty"`
	P50Ms           float64 `json:"p50_ms,omitempty"`
	P99Ms           float64 `json:"p99_ms,omitempty"`
	MaxMs           float64 `json:"max_ms,omitempty"`
	QPS             float64 `json:"qps,omitempty"`
	MaxStaleness    int     `json:"max_staleness,omitempty"`

	// Membership probe (membership/* entries): detector-only failure
	// detection at scale. sim_seconds is the crash->confirmed detection
	// latency seen by the observer, msg_bytes the detector's total wire
	// bytes — both deterministic invariants like every other entry's.
	DetectionPeriods int   `json:"detection_periods,omitempty"`
	FalseSuspicions  int   `json:"false_suspicions,omitempty"`
	FalseConfirms    int   `json:"false_confirms,omitempty"`
	DetectorMessages int64 `json:"detector_messages,omitempty"`

	// Scale tier (scale/* entries): the synthetic graph's dimensions,
	// parallel-generation wall clock keyed by worker count (the graph is
	// bit-identical across the sweep), and the graph layout's measured
	// footprint.
	ScaleVertices         int                `json:"scale_vertices,omitempty"`
	ScaleEdges            int                `json:"scale_edges,omitempty"`
	GenWallSeconds        map[string]float64 `json:"gen_wall_seconds,omitempty"`
	FootprintBytes        int64              `json:"footprint_bytes,omitempty"`
	FootprintBytesPerEdge float64            `json:"footprint_bytes_per_edge,omitempty"`
}

// benchReport is the emitted JSON document.
type benchReport struct {
	Schema       string       `json:"schema"`
	Nodes        int          `json:"nodes"`
	Iters        int          `json:"iters"`
	Workers      int          `json:"workers"`
	Small        bool         `json:"small"`
	Results      []benchEntry `json:"results"`
	Baseline     []benchEntry `json:"baseline,omitempty"`
	BaselineNote string       `json:"baseline_note,omitempty"`
}

// measure runs f and returns its wall seconds and heap-allocation deltas.
func measure(f func() error) (wall float64, allocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = f()
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// runJSON executes the bench suite and writes the report to fl.path. When a
// baseline is given, the regression guards run after the report is written,
// so a failing run still leaves the evidence on disk.
func runJSON(opts experiments.Options, fl jsonFlags) error {
	report := benchReport{
		Schema:  "imitator-bench/v1",
		Nodes:   opts.Nodes,
		Iters:   opts.Iters,
		Workers: opts.Workers,
		Small:   opts.Small,
	}

	// The steady-state probes run FIRST, before the figure suites: figures
	// load and memoize many datasets, and the grown live set makes every GC
	// cycle inside a later sub-second probe measurably slower (observed 2x+
	// on the per-superstep wall). Probe walls are only comparable across
	// reports when taken on a quiet heap.
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		entry, err := superstepProbe(mode, opts)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, entry)
		fmt.Fprintf(os.Stderr, "bench: %s allocs/superstep=%.1f\n", entry.ID, entry.AllocsPerSuperstep)
	}

	ftEntries, err := ftProbe(opts)
	if err != nil {
		return err
	}
	for _, e := range ftEntries {
		report.Results = append(report.Results, e)
		fmt.Fprintf(os.Stderr, "bench: %s persist/step=%.4fs recovery=%.3fs\n",
			e.ID, e.PersistPerSuperstep, e.RecoverySeconds)
	}

	if !fl.probesOnly {
		figures := []struct {
			id  string
			run func(experiments.Options) (*experiments.Table, error)
		}{
			{"fig7", experiments.Fig7RuntimeOverheadEdgeCut},
			{"fig13", experiments.Fig13RuntimeOverheadVertexCut},
		}
		for _, fig := range figures {
			wall, allocs, bytes, err := measure(func() error {
				_, err := fig.run(opts)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", fig.id, err)
			}
			report.Results = append(report.Results, benchEntry{
				ID: fig.id, WallSeconds: wall, Allocs: allocs, AllocBytes: bytes,
			})
			fmt.Fprintf(os.Stderr, "bench: %s wall=%.2fs allocs=%d\n", fig.id, wall, allocs)
		}
	}

	if fl.serve {
		serveEntries, err := serveProbe(opts)
		if err != nil {
			return err
		}
		for _, e := range serveEntries {
			report.Results = append(report.Results, e)
			fmt.Fprintf(os.Stderr, "bench: %s p50=%.3fms p99=%.3fms qps=%.0f replica_reads=%d staleness<=%d\n",
				e.ID, e.P50Ms, e.P99Ms, e.QPS, e.ReplicaReads, e.MaxStaleness)
		}
	}

	if fl.membership {
		memEntries, err := membershipProbe(fl.membershipSizes)
		if err != nil {
			return err
		}
		for _, e := range memEntries {
			report.Results = append(report.Results, e)
			reportMembership(e)
		}
	}

	if fl.scale {
		entry, err := scaleProbe(opts, fl.scaleVertices, fl.scaleEdges)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, entry)
		fmt.Fprintf(os.Stderr, "bench: %s wall=%.2fs footprint=%.1fMB\n",
			entry.ID, entry.WallSeconds, float64(entry.FootprintBytes)/(1<<20))
	}

	var base *benchReport
	if fl.basePath != "" {
		data, err := os.ReadFile(fl.basePath)
		if err != nil {
			return fmt.Errorf("bench: baseline: %w", err)
		}
		base = &benchReport{}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("bench: baseline: %w", err)
		}
		report.Baseline = base.Results
		report.BaselineNote = fmt.Sprintf("pre-optimization run of the same suite (nodes=%d iters=%d workers=%d small=%v)",
			base.Nodes, base.Iters, base.Workers, base.Small)
	}

	out, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(fl.path, out, 0o644); err != nil {
		return err
	}
	if base != nil {
		return checkBaseline(&report, base, fl)
	}
	return nil
}

// checkBaseline enforces the two regression guards against a baseline run:
// identity (sim_seconds/msg_bytes must match bit-for-bit on every entry both
// reports share — these are simulation outputs, so any drift means the
// semantics changed, not the speed) and wall clock (an entry slower than
// baseline by more than -max-wall-regress fails; sub-100ms baselines are
// skipped as pure noise).
func checkBaseline(report, base *benchReport, fl jsonFlags) error {
	baseByID := make(map[string]benchEntry, len(base.Results))
	for _, e := range base.Results {
		baseByID[e.ID] = e
	}
	var problems []string
	for _, e := range report.Results {
		b, ok := baseByID[e.ID]
		if !ok {
			continue
		}
		if fl.checkIdentity && (b.SimSeconds != 0 || b.MsgBytes != 0) {
			if e.SimSeconds != b.SimSeconds || e.MsgBytes != b.MsgBytes {
				problems = append(problems, fmt.Sprintf(
					"%s: identity drift: sim_seconds %v -> %v, msg_bytes %d -> %d",
					e.ID, b.SimSeconds, e.SimSeconds, b.MsgBytes, e.MsgBytes))
			}
		}
		if fl.maxWallRegress > 0 && b.WallSeconds >= 0.1 &&
			e.WallSeconds > fl.maxWallRegress*b.WallSeconds {
			problems = append(problems, fmt.Sprintf(
				"%s: wall regression: %.2fs -> %.2fs (> %.2fx baseline)",
				e.ID, b.WallSeconds, e.WallSeconds, fl.maxWallRegress))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", p)
	}
	return fmt.Errorf("%d baseline check(s) failed (report written anyway)", len(problems))
}

// ftProbe races log-based failure-confined recovery against the checkpoint
// baseline under the standard mid-run crash of node 1: per-superstep
// persistence overhead and total recovery time. Both runs are deterministic,
// so their sim_seconds/msg_bytes are invariants like every other entry's.
func ftProbe(opts experiments.Options) ([]benchEntry, error) {
	iters := opts.Iters
	if iters < 2 {
		iters = 2
	}
	crashAt := iters / 2
	w := experiments.Workload{Algo: "pagerank", Dataset: "gweb", Iters: iters}
	mk := func() core.Config {
		cfg := core.DefaultConfig(core.EdgeCutMode, opts.Nodes)
		cfg.FT = core.FTConfig{}
		if opts.Workers > 0 {
			cfg.WorkersPerNode = opts.Workers
		}
		cfg.MaxRebirths = 8
		cfg.Chaos = []core.ChaosEvent{
			{Kind: core.ChaosCrash, Iteration: crashAt, Phase: core.FailBeforeBarrier, Nodes: []int{1}},
		}
		return cfg
	}
	logged := mk()
	logged.Logged = core.LoggedConfig{Enabled: true, CompactEvery: 4}
	logged.Recovery = core.RecoverLogged
	ckpt := mk()
	ckpt.Checkpoint = core.CheckpointConfig{Enabled: true, Interval: 1}
	ckpt.Recovery = core.RecoverCheckpoint

	var entries []benchEntry
	for _, probe := range []struct {
		id  string
		cfg core.Config
	}{
		{"ftcompare/logged", logged},
		{"ftcompare/checkpoint", ckpt},
	} {
		var sum experiments.RunSummary
		wall, allocs, bytes, err := measure(func() error {
			var err error
			sum, err = experiments.RunWorkload(w, probe.cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", probe.id, err)
		}
		if len(sum.Recoveries) == 0 {
			return nil, fmt.Errorf("%s: crash produced no recovery", probe.id)
		}
		rec := sum.Recoveries[len(sum.Recoveries)-1]
		entries = append(entries, benchEntry{
			ID:                  probe.id,
			WallSeconds:         wall,
			Allocs:              allocs,
			AllocBytes:          bytes,
			SimSeconds:          sum.SimSeconds,
			MsgBytes:            sum.Metrics.TotalBytes(),
			PersistPerSuperstep: sum.Strategy.PersistSeconds / float64(iters),
			RecoverySeconds:     rec.TotalSeconds(),
			SurvivorReplayIters: rec.ReplayIters,
			LogReplaySteps:      rec.LogReplaySupersteps,
		})
	}
	return entries, nil
}

// superstepProbe isolates the steady-state superstep loop: it runs the same
// PageRank job short and long, so the per-superstep delta excludes loading,
// partitioning and replication setup. The default config keeps the FT layer
// on (K=1 replication, rebirth recovery) — the configuration whose inner
// loop the paper's overhead claims are about.
func superstepProbe(mode core.Mode, opts experiments.Options) (benchEntry, error) {
	const shortIters, span = 5, 20
	id := "superstep/edgecut/pagerank"
	if mode == core.VertexCutMode {
		id = "superstep/vertexcut/pagerank"
	}
	cfg := core.DefaultConfig(mode, opts.Nodes)
	if opts.Workers > 0 {
		cfg.WorkersPerNode = opts.Workers
	}
	run := func(iters int) (experiments.RunSummary, float64, uint64, error) {
		w := experiments.Workload{Algo: "pagerank", Dataset: "gweb", Iters: iters}
		var sum experiments.RunSummary
		wall, allocs, _, err := measure(func() error {
			var err error
			sum, err = experiments.RunWorkload(w, cfg)
			return err
		})
		return sum, wall, allocs, err
	}
	_, shortWall, shortAllocs, err := run(shortIters)
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", id, err)
	}
	long, longWall, longAllocs, err := run(shortIters + span)
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", id, err)
	}
	return benchEntry{
		ID:          id,
		WallSeconds: longWall,
		Allocs:      longAllocs,
		SimSeconds:  long.SimSeconds,
		MsgBytes:    long.Metrics.TotalBytes(),
		Supersteps:  span,
		// Signed delta: when the steady state is alloc-free, GC noise can
		// leave the long run a hair under the short one, and an unsigned
		// subtraction would wrap to 2^64.
		AllocsPerSuperstep: (float64(longAllocs) - float64(shortAllocs)) / span,
		WallPerSuperstep:   (longWall - shortWall) / span,
	}, nil
}
