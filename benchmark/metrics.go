package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one named metric of the benchmark. BENCHMARK.json at the
// repository root is generated from these tables (-manifest) and a test
// keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures; see README "Noise policy" for how
// it was sized against the driver's total budget.
const runSeconds = 15

var workloads = []workloadDef{
	{"ec-steady", "edge-cut PageRank, Replication K=1, no fault: the superstep loop is ~75% of the job and load ~25%; recovery, persistence, serve and detector do nothing"},
	{"vc-steady", "same graph under vertex-cut GAS: two message rounds and master-side merges, so a superstep change that helps edge-cut and costs vertex-cut shows here"},
	{"failover-matrix", "8 supersteps, crash at 4, under rebirth, migration, checkpoint and logged: load, FT persistence and recovery dominate; steady supersteps are little"},
	{"serve-failover", "K=2 job with a crash while one closed-loop client reads through the wire codec: snapshot publish and replica routing run beside the superstep writes"},
	{"detect-1024", "SWIM detector only, 1024 members, 20% drop around 32 of them, one crash: the failure detector does all the work and the engine none"},
}

// endToEnd are the metrics a user of the system sees; every workload reports
// every one of them. Bound is the share of the parent's median by which a
// later change may worsen the metric before it is rejected.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"job_wall_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
	{"alloc_mb_per_job", "MB", lower, 0.15},
	{"sim_s", "s", lower, 0.20},
	{"msg_mb", "MB", lower, 0.20},
}

// recoverKinds are the failover-matrix cells, in run order.
var recoverKinds = []string{"rebirth", "migration", "checkpoint", "logged"}

// perLayer are the single-layer metrics of the traced pass (layer =
// package). A metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "gen.powerlaw.wall_s", Unit: "s", Better: lower},
		{Name: "gen.powerlaw.allocs", Unit: "count", Better: lower},
		{Name: "gen.powerlaw.medges_per_s", Unit: "1/s", Better: higher},
		{Name: "graph.csr.wall_s", Unit: "s", Better: lower},
		{Name: "graph.csr.allocs", Unit: "count", Better: lower},
		{Name: "graph.bytes_per_edge", Unit: "B", Better: lower},
		{Name: "partition.wall_s", Unit: "s", Better: lower},
		{Name: "partition.replication_factor", Unit: "ratio", Better: lower},
		{Name: "partition.edge_balance", Unit: "ratio", Better: lower},
		{Name: "core.load.wall_s", Unit: "s", Better: lower},
		{Name: "core.load.allocs", Unit: "count", Better: lower},
		{Name: "core.load.alloc_mb", Unit: "MB", Better: lower},
		{Name: "core.load.sim_s", Unit: "s", Better: lower},
		{Name: "core.load.ft_extra_replicas", Unit: "count", Better: lower},
		{Name: "core.load.replication_factor", Unit: "ratio", Better: lower},
		{Name: "core.run.wall_s", Unit: "s", Better: lower},
		{Name: "core.run.allocs", Unit: "count", Better: lower},
		{Name: "core.run.alloc_mb", Unit: "MB", Better: lower},
		{Name: "core.run.supersteps", Unit: "count", Better: lower},
		{Name: "core.run.wall_per_superstep_ms", Unit: "ms", Better: lower},
		{Name: "core.run.medges_per_s", Unit: "1/s", Better: higher},
		{Name: "core.run.sim_per_superstep_s", Unit: "s", Better: lower},
		{Name: "core.run.sim_compute_s", Unit: "s", Better: lower},
		{Name: "core.run.sync_mb", Unit: "MB", Better: lower},
		{Name: "core.run.ft_mb", Unit: "MB", Better: lower},
		{Name: "core.run.gather_mb", Unit: "MB", Better: lower},
		{Name: "core.run.activation_mb", Unit: "MB", Better: lower},
		{Name: "core.run.ft_msg_ratio", Unit: "ratio", Better: lower},
		{Name: "sim.ft_overhead_pct", Unit: "%", Better: lower},
		{Name: "sim.mem_mb", Unit: "MB", Better: lower},
		{Name: "sim.recovery_s", Unit: "s", Better: lower},
		{Name: "bufpool.reuse_ratio", Unit: "ratio", Better: higher},
		{Name: "bufpool.getput_ns", Unit: "ns", Better: lower},
		{Name: "netsim.round_us", Unit: "us", Better: lower},
		{Name: "coord.barrier_us", Unit: "us", Better: lower},
		{Name: "dfs.write_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "dfs.read_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "ftlog.encode_mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "ftlog.decode_mb_per_s", Unit: "MB/s", Better: higher},
	}
	for _, k := range []string{"checkpoint", "logged"} {
		defs = append(defs,
			metricDef{Name: "core.persist." + k + ".sim_per_superstep_s", Unit: "s", Better: lower},
			metricDef{Name: "core.persist." + k + ".dfs_write_mb", Unit: "MB", Better: lower},
		)
	}
	for _, k := range recoverKinds {
		p := "core.recover." + k + "."
		defs = append(defs,
			metricDef{Name: p + "sim_s", Unit: "s", Better: lower},
			metricDef{Name: p + "reload_sim_s", Unit: "s", Better: lower},
			metricDef{Name: p + "reconstruct_sim_s", Unit: "s", Better: lower},
			metricDef{Name: p + "replay_sim_s", Unit: "s", Better: lower},
			metricDef{Name: p + "wire_mb", Unit: "MB", Better: lower},
			metricDef{Name: p + "host_span_ms", Unit: "ms", Better: lower},
			metricDef{Name: p + "job_wall_s", Unit: "s", Better: lower},
		)
	}
	defs = append(defs,
		metricDef{Name: "serve.queries_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "serve.p50_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.p99_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.p999_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.max_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.value.p50_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.topk.p50_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.neighbors.p50_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.replica_read_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "serve.refused_unavailable", Unit: "count", Better: lower},
		metricDef{Name: "serve.refused_stale", Unit: "count", Better: lower},
		metricDef{Name: "serve.max_staleness", Unit: "count", Better: lower},
		metricDef{Name: "serve.epochs_published", Unit: "count", Better: higher},
		metricDef{Name: "serve.job_slowdown_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "core.servewire.roundtrip_ns", Unit: "ns", Better: lower},
		metricDef{Name: "gossip.new.wall_s", Unit: "s", Better: lower},
		metricDef{Name: "gossip.period.wall_ms", Unit: "ms", Better: lower},
		metricDef{Name: "gossip.period.allocs", Unit: "count", Better: lower},
		metricDef{Name: "gossip.msgs", Unit: "count", Better: lower},
		metricDef{Name: "gossip.wire_mb", Unit: "MB", Better: lower},
		metricDef{Name: "gossip.detect_periods", Unit: "count", Better: lower},
		metricDef{Name: "gossip.false_suspicions", Unit: "count", Better: lower},
		metricDef{Name: "gossip.false_confirms", Unit: "count", Better: lower},
		metricDef{Name: "netsim.lossy.install.wall_s", Unit: "s", Better: lower},
		metricDef{Name: "hostpar.job_wall_s", Unit: "s", Better: lower},
		metricDef{Name: "hostpar.speedup", Unit: "ratio", Better: higher},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: lower},
		metricDef{Name: "job.unattributed_pct", Unit: "%", Better: lower},
	)
	return defs
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	gated := make([]e2e, len(endToEnd))
	for i, d := range endToEnd {
		gated[i] = e2e{d.Name, d.Unit, d.Better, d.Bound}
	}
	return json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   gated,
		PerLayer:   perLayer,
	}, "", "  ")
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one pass's metrics against its table: a name outside
// the table is a bug in the benchmark, and a pass must end with every name
// of the table set.
type metricSet struct {
	defs    map[string]metricDef
	values  map[string]float64
	samples map[string]int // how many repetitions stand behind the value
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]float64{}, samples: map[string]int{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	m.values[name] = v
}

// setMedian stores the median of xs and remembers the sample count.
func (m *metricSet) setMedian(name string, xs []float64) {
	m.set(name, median(xs))
	m.samples[name] = len(xs)
}

// setFastest stores the smallest of xs (wall timings) and the sample count.
func (m *metricSet) setFastest(name string, xs []float64) {
	m.set(name, fastest(xs))
	m.samples[name] = len(xs)
}

// fillZero gives every unset metric the value 0 (per-layer metrics of layers
// the workload does not exercise).
func (m *metricSet) fillZero() {
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			m.values[name] = 0
		}
	}
}

// missing lists table names without a value, sorted.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (m *metricSet) report() map[string]metricValue {
	out := make(map[string]metricValue, len(m.values))
	for name, v := range m.values {
		out[name] = metricValue{Value: v, Unit: m.defs[name].Unit}
	}
	return out
}

// check reports metrics that break the output contract: every end-to-end
// value must be a positive finite number and no per-layer value negative.
func (m *metricSet) check(positive bool) error {
	for name, v := range m.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", name, v)
		}
		if v < 0 || (positive && v == 0) {
			return fmt.Errorf("metric %s = %v breaks the output contract", name, v)
		}
	}
	return nil
}
