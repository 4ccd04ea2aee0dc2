package imitator

import (
	"io"

	"imitator/internal/experiments"
	"imitator/internal/trace"
)

// Workload names an algorithm ("pagerank", "sssp", "cd", "als") and a
// catalog dataset, for callers that select jobs by string (CLIs, sweeps)
// instead of instantiating a typed Program.
type Workload = experiments.Workload

// RunSummary is a type-erased run report: everything in Result except the
// typed vertex values.
type RunSummary = experiments.RunSummary

// RunWorkloadOn executes one named workload under cfg on an explicit graph.
func RunWorkloadOn(w Workload, g *Graph, cfg Config) (RunSummary, error) {
	return experiments.RunWorkloadOn(w, g, cfg)
}

// RenderTimeline writes an ASCII execution timeline of a run's TraceEvents.
func RenderTimeline(w io.Writer, events []TraceEvent) {
	trace.Render(w, events)
}

// TimelineSummary returns a one-line accounting of a run's TraceEvents.
func TimelineSummary(events []TraceEvent) string {
	return trace.Summary(events)
}
