package experiments

import (
	"fmt"

	"imitator/internal/algorithms"
	"imitator/internal/core"
	"imitator/internal/datasets"
	"imitator/internal/graph"
)

// Handle is a workload running in the background with the serving layer
// attached: the engine executes (and recovers) on its own goroutine while
// the caller issues live queries against epoch-consistent snapshots.
type Handle struct {
	query func(core.Query) (core.Answer, error)
	done  chan struct{}

	// set by the run goroutine before closing done
	summary core.RunSummary
	err     error
}

// Query answers one live query from the last published epoch. Safe to call
// concurrently, before and after the run finishes.
func (h *Handle) Query(q core.Query) (core.Answer, error) { return h.query(q) }

// Done is closed when the engine goroutine finishes.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the run completes and returns its summary.
func (h *Handle) Wait() (core.RunSummary, error) {
	<-h.done
	return h.summary, h.err
}

func startTyped[V, A any](cfg core.Config, g *graph.Graph, prog core.Program[V, A]) (*Handle, error) {
	cl, err := core.NewCluster[V, A](cfg, g, prog)
	if err != nil {
		return nil, err
	}
	h := &Handle{query: cl.Query, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		res, err := cl.Run()
		if err != nil {
			h.err = err
			return
		}
		h.summary = res.RunSummary
	}()
	return h, nil
}

// StartWorkload launches one named workload on its catalog dataset as a
// live-serving run (Config.Serve is force-enabled) and returns the query
// handle immediately.
func StartWorkload(w Workload, cfg core.Config) (*Handle, error) {
	g, err := datasets.Load(w.Dataset)
	if err != nil {
		return nil, err
	}
	return StartWorkloadOn(w, g, cfg)
}

// StartWorkloadOn is StartWorkload on an explicit graph.
func StartWorkloadOn(w Workload, g *graph.Graph, cfg core.Config) (*Handle, error) {
	cfg.Serve.Enabled = true
	return start(w, g, cfg)
}

// start is the one workload dispatch: it instantiates w's program and runs
// it under cfg on g in the background. RunWorkloadOn waits on the handle;
// StartWorkloadOn hands it to the caller for live queries.
func start(w Workload, g *graph.Graph, cfg core.Config) (*Handle, error) {
	cfg.MaxIter = w.Iters
	switch w.Algo {
	case "pagerank":
		return startTyped(cfg, g, algorithms.NewPageRank(g.NumVertices()))
	case "sssp":
		return startTyped(cfg, g, algorithms.NewSSSP(3))
	case "cd":
		return startTyped(cfg, g, algorithms.NewCD())
	case "als":
		// syn-gl has 7000 users (see datasets catalog). ALS vertex values
		// are vectors; the serving layer indexes scalar values only, so
		// serving ALS is rejected by NewCluster.
		return startTyped(cfg, g, algorithms.NewALS(7000, 8, 0.05))
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", w.Algo)
	}
}
