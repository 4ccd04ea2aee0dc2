// Command imitator runs one graph-processing job on the simulated cluster
// with the configured fault-tolerance scheme, optionally injecting machine
// failures, and prints a run report.
//
// Examples:
//
//	imitator -dataset ljournal -algo pagerank -nodes 8 -iters 10
//	imitator -dataset wiki -algo pagerank -ft migration -chaos 'crash@5b=2,3'
//	imitator -dataset roadca -algo sssp -mode vertexcut -partitioner hybrid
//	imitator -dataset ljournal -algo pagerank -ft checkpoint -ckpt-interval 2 -chaos 'crash@5b=1'
//	imitator -dataset wiki -algo pagerank -ft logged -compact-every 4 -chaos 'crash@5b=1'
//	imitator -dataset wiki -algo pagerank -ft migration -chaos 'crash@3b=1|crashrec@migration:repair=4|slow@2=0>3x8'
//	imitator -dataset wiki -algo pagerank -chaos 'drop@1=0>2x0.3|part@2~5=1' -chaos-seed 42
//	imitator -dataset gweb -algo pagerank -serve -queries 2000 -chaos 'crash@3b=1'
//	imitator -dataset gweb -algo pagerank -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"imitator/internal/serveload"
	"imitator/pkg/imitator"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imitator:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("imitator", flag.ContinueOnError)
	var (
		dataset     = fs.String("dataset", "ljournal", "dataset name (see -list)")
		algo        = fs.String("algo", "pagerank", "algorithm: pagerank, sssp, cd, als")
		mode        = fs.String("mode", "edgecut", "engine mode: edgecut or vertexcut")
		partitioner = fs.String("partitioner", "", "hash|fennel|ldg (edge-cut), random|grid|hybrid|oblivious (vertex-cut); empty = mode default")
		nodes       = fs.Int("nodes", 8, "number of simulated nodes")
		iters       = fs.Int("iters", 10, "supersteps to run")
		workers     = fs.Int("workers", 1, "simulated intra-node worker-pool width (vertex values are identical for any value; simulated seconds shrink with it)")
		ftMode      = fs.String("ft", "replication", "fault-tolerance strategy: replication (rebirth), migration, checkpoint, logged, none")
		k           = fs.Int("k", 1, "replication/migration: number of simultaneous failures to tolerate")
		selfish     = fs.Bool("selfish-opt", true, "replication/migration: enable the selfish-vertex optimization")
		ckptIvl     = fs.Int("ckpt-interval", 1, "checkpoint: snapshot interval in iterations")
		compactIvl  = fs.Int("compact-every", 0, "logged: write a full log record every n supersteps to bound replay (0 = never)")
		chaosSched  = fs.String("chaos", "", "failure schedule: crash@<iter><b|a>=<nodes>, crashrec[@label]=<nodes>, slow@<iter>=<from>><to>x<factor>, delay@<iter>=<seconds>, drop@<iter>=<from>><to>x<prob>, dup@<iter>=<from>><to>x<prob>, reorder@<iter>=<from>><to>x<prob>, part@<iter>~<heal>=<nodes>, joined by '|'")
		chaosSeed   = fs.Uint64("chaos-seed", 0, "seed for the deterministic per-link omission-fault generators (drop/dup/reorder)")
		membership  = fs.String("membership", "centralized", "failure detector for chaos crashes: centralized (heartbeat monitor) or gossip (SWIM probing over lossy datagrams)")
		input       = fs.String("input", "", "edge-list file to load instead of -dataset (src dst [weight] per line)")
		serve       = fs.Bool("serve", false, "serve mode: run with the live-query layer attached and drive a seeded query load while the job executes")
		queries     = fs.Int("queries", 1024, "serve: number of load-generator queries to issue")
		querySeed   = fs.Uint64("query-seed", 1, "serve: seed of the deterministic query stream")
		topk        = fs.Int("topk", 10, "serve: K for top-K queries in the load mix")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON instead of text")
		timeline    = fs.Bool("timeline", false, "render the execution timeline")
		list        = fs.Bool("list", false, "list datasets and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range imitator.DatasetNames() {
			d := imitator.Datasets()[name]
			fmt.Printf("%-10s paper %s vertices, %s edges\n", name, d.PaperVertices, d.PaperEdges)
		}
		return nil
	}

	opts := []imitator.Option{
		imitator.WithNodes(*nodes),
		imitator.WithIterations(*iters),
		imitator.WithWorkers(*workers),
		imitator.WithMaxRebirths(*nodes),
	}
	switch *mode {
	case "edgecut":
		opts = append(opts, imitator.WithMode(imitator.EdgeCutMode))
	case "vertexcut":
		opts = append(opts, imitator.WithMode(imitator.VertexCutMode))
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *partitioner != "" {
		p, err := parsePartitioner(*partitioner)
		if err != nil {
			return err
		}
		opts = append(opts, imitator.WithPartitioner(p))
	}
	strat, err := buildStrategy(*ftMode, *k, *selfish, *ckptIvl, *compactIvl)
	if err != nil {
		return err
	}
	opts = append(opts, imitator.WithFTStrategy(strat))
	if *serve {
		opts = append(opts, imitator.WithServe())
	}
	if *chaosSched != "" {
		sched, err := imitator.ParseFailureSchedule(*chaosSched)
		if err != nil {
			return err
		}
		opts = append(opts, imitator.WithFailures(sched...))
	}
	if *chaosSeed != 0 {
		opts = append(opts, imitator.WithChaosSeed(*chaosSeed))
	}
	switch *membership {
	case "centralized":
	case "gossip":
		opts = append(opts, imitator.WithMembership(imitator.Gossip))
	default:
		return fmt.Errorf("unknown membership %q (use centralized or gossip)", *membership)
	}
	cfg := imitator.New(opts...)

	w := imitator.Workload{Algo: *algo, Dataset: *dataset, Iters: *iters}
	var g *imitator.Graph
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		g, err = imitator.ReadEdgeList(f, 0)
		f.Close()
		if err != nil {
			return err
		}
		w.Dataset = *input
	} else {
		g, err = imitator.LoadDataset(*dataset)
		if err != nil {
			return err
		}
	}

	var s imitator.RunSummary
	var load *serveload.Stats
	if *serve {
		srv, err := imitator.ServeOn(w, g, cfg)
		if err != nil {
			return err
		}
		st, err := serveload.Run(serveload.Config{
			Queries:     *queries,
			Seed:        *querySeed,
			NumVertices: g.NumVertices(),
			TopK:        *topk,
			Done:        srv.Done(),
		}, srv.Query)
		if err != nil {
			return err
		}
		load = &st
		if s, err = srv.Wait(); err != nil {
			return err
		}
	} else if s, err = imitator.RunWorkloadOn(w, g, cfg); err != nil {
		return err
	}

	if *jsonOut {
		return writeJSON(os.Stdout, w, cfg, s, load)
	}
	report(w, cfg, s, load)
	if *timeline {
		fmt.Println("timeline:")
		imitator.RenderTimeline(os.Stdout, s.Trace)
		fmt.Println(imitator.TimelineSummary(s.Trace))
	}
	return nil
}

// buildStrategy maps the -ft name plus the per-strategy refinement flags
// onto one typed FTStrategy.
func buildStrategy(name string, k int, selfish bool, ckptIvl, compactIvl int) (imitator.FTStrategy, error) {
	switch name {
	case "replication", "rebirth":
		return imitator.Replication(
			imitator.ReplicationK(k), imitator.ReplicationSelfish(selfish)), nil
	case "migration":
		return imitator.Migration(
			imitator.ReplicationK(k), imitator.ReplicationSelfish(selfish)), nil
	case "checkpoint":
		// The checkpoint baseline runs without replication FT, like the
		// paper's Hama-style comparison point.
		return imitator.Checkpoint(ckptIvl), nil
	case "logged":
		return imitator.LoggedRecovery(imitator.LoggedCompactEvery(compactIvl)), nil
	case "none":
		return imitator.NoRecovery(), nil
	default:
		return nil, fmt.Errorf("unknown FT strategy %q", name)
	}
}

func parsePartitioner(s string) (imitator.Partitioner, error) {
	switch s {
	case "hash":
		return imitator.PartHash, nil
	case "fennel":
		return imitator.PartFennel, nil
	case "ldg":
		return imitator.PartLDG, nil
	case "oblivious":
		return imitator.PartOblivious, nil
	case "random":
		return imitator.PartRandom, nil
	case "grid":
		return imitator.PartGrid, nil
	case "hybrid":
		return imitator.PartHybrid, nil
	default:
		return 0, fmt.Errorf("unknown partitioner %q", s)
	}
}

// jsonReport is the machine-readable run report: the same facts as the
// text report, with the uniform Strategy/Buffers/Omission/Serve sections
// always present under stable keys.
type jsonReport struct {
	Algo        string              `json:"algo"`
	Dataset     string              `json:"dataset"`
	Mode        string              `json:"mode"`
	Partitioner string              `json:"partitioner"`
	Nodes       int                 `json:"nodes"`
	Workers     int                 `json:"workers"`
	Iters       int                 `json:"iters"`
	Summary     imitator.RunSummary `json:"summary"`
	Load        *serveload.Stats    `json:"load,omitempty"`
}

func writeJSON(w *os.File, wl imitator.Workload, cfg imitator.Config, s imitator.RunSummary, load *serveload.Stats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		Algo:        wl.Algo,
		Dataset:     wl.Dataset,
		Mode:        fmt.Sprint(cfg.Mode),
		Partitioner: fmt.Sprint(cfg.Partitioner),
		Nodes:       cfg.NumNodes,
		Workers:     cfg.WorkersPerNode,
		Iters:       wl.Iters,
		Summary:     s,
		Load:        load,
	})
}

func report(w imitator.Workload, cfg imitator.Config, s imitator.RunSummary, load *serveload.Stats) {
	fmt.Printf("job: %s on %s (%s, %v, %d nodes x %d workers)\n",
		w.Algo, w.Dataset, cfg.Mode, cfg.Partitioner, cfg.NumNodes, cfg.WorkersPerNode)
	fmt.Printf("graph: %d vertices, %d edges; replication factor %.2f (%d FT replicas added)\n",
		s.NumVertices, s.NumEdges, s.ReplicationFactor, s.ExtraReplicas)
	fmt.Printf("run: %d-iteration job in %.3f simulated seconds (%.4f s/iter avg)\n",
		w.Iters, s.SimSeconds, s.AvgIterSeconds)
	fmt.Printf("traffic: %d messages, %.2f MB total; memory max-node %.1f MB, total %.1f MB\n",
		s.Metrics.TotalMsgs(), float64(s.Metrics.TotalBytes())/1e6,
		float64(s.MaxMemory)/1e6, float64(s.TotalMemory)/1e6)
	if b := s.Buffers; b.Gets > 0 {
		fmt.Printf("buffers: %d gets, %d misses (reuse %.3f)\n", b.Gets, b.Misses, b.ReuseFraction())
	}
	if st := s.Strategy; st.PersistCount > 0 || st.Recoveries > 0 {
		fmt.Printf("ft: %s strategy, %d persists (%.2f MB, %.3f s, %d log records), %d recoveries (%.3f s)\n",
			st.Kind, st.PersistCount, float64(st.PersistedBytes)/1e6, st.PersistSeconds,
			st.LogRecords, st.Recoveries, st.RecoverySeconds)
	}
	if o := s.Omission; o != nil {
		fmt.Printf("omission: %d retransmits (%.2f KB, %.2f KB acks), %d dups dropped, %d reordered, %d parked, %d fenced\n",
			o.Retransmits, float64(o.RetransmitBytes)/1e3, float64(o.AckBytes)/1e3,
			o.DuplicatesDropped, o.Reordered, o.Parked, o.Fenced)
	}
	if m := s.Membership; m != nil {
		avg := 0.0
		for _, lat := range m.DetectionSeconds {
			avg += lat
		}
		if len(m.DetectionSeconds) > 0 {
			avg /= float64(len(m.DetectionSeconds))
		}
		fmt.Printf("membership: %s detector, %d failures detected (%.3f s avg latency), %d false suspicions, %.2f KB gossip in %d periods\n",
			m.Mode, len(m.DetectionSeconds), avg, m.FalseSuspicions,
			float64(m.GossipBytes)/1e3, m.GossipPeriods)
	}
	if sv := s.Serve; sv != nil {
		fmt.Printf("serve: %d queries (%d from replicas, %d unavailable), max staleness %d\n",
			sv.Queries, sv.FromReplica, sv.Unavailable, sv.MaxStaleness)
	}
	if load != nil {
		fmt.Printf("load: %d issued, %d answered at %.0f qps; latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n",
			load.Issued, load.Answered, load.QPS, load.P50, load.P95, load.P99, load.Max)
	}
	for _, r := range s.Recoveries {
		fmt.Printf("recovery: %s\n", r)
	}
}
