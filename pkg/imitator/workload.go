package imitator

import (
	"fmt"
	"io"
	"strings"

	"imitator/internal/core"
	"imitator/internal/experiments"
)

// Workload names an algorithm ("pagerank", "sssp", "cd", "als") and a
// catalog dataset, for callers that select jobs by string (CLIs, sweeps)
// instead of instantiating a typed Program.
type Workload = experiments.Workload

// RunSummary is a type-erased run report: everything in Result except the
// typed vertex values.
type RunSummary = core.RunSummary

// RunWorkloadOn executes one named workload under cfg on an explicit graph.
func RunWorkloadOn(w Workload, g *Graph, cfg Config) (RunSummary, error) {
	return experiments.RunWorkloadOn(w, g, cfg)
}

// Timeline rendering: the bar area is timelineWidth characters wide, and a
// timeline longer than coalesceOver spans merges consecutive iteration rows.
const (
	timelineWidth = 60
	coalesceOver  = 40
)

// RenderTimeline writes an ASCII Gantt of a run's TraceEvents (the Fig 12
// case-study view): per-iteration bars on the simulated-time axis, with
// checkpoints (C) and recoveries (R) marked.
func RenderTimeline(w io.Writer, events []TraceEvent) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	end := events[len(events)-1].End
	if end <= 0 {
		end = 1
	}
	scale := float64(timelineWidth) / end

	rows := events
	if len(rows) > coalesceOver {
		rows = coalesceIterations(rows)
	}
	for _, ev := range rows {
		startCol := int(ev.Start * scale)
		length := max(int(ev.Duration()*scale+0.5), 1)
		if startCol+length > timelineWidth {
			length = max(timelineWidth-startCol, 1)
		}
		mark := "#"
		switch ev.Kind {
		case core.TraceCheckpoint:
			mark = "C"
		case core.TraceRecovery:
			mark = "R"
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat(mark, length)
		fmt.Fprintf(w, "%9.3fs  %-10s %4d  |%s\n", ev.Start, ev.Kind, ev.Iter, bar)
	}
	fmt.Fprintf(w, "%9.3fs  total\n", end)
}

// coalesceIterations merges runs of consecutive iteration spans into one row.
func coalesceIterations(events []TraceEvent) []TraceEvent {
	var out []TraceEvent
	for _, ev := range events {
		if n := len(out); n > 0 && out[n-1].Kind == core.TraceIteration && ev.Kind == core.TraceIteration {
			out[n-1].End = ev.End
			continue
		}
		out = append(out, ev)
	}
	return out
}

// TimelineSummary returns a one-line accounting of a run's TraceEvents:
// count and time share per kind, in order of first appearance.
func TimelineSummary(events []TraceEvent) string {
	if len(events) == 0 {
		return "empty trace"
	}
	total := events[len(events)-1].End
	var n [core.TraceRecovery + 1]int
	var sec [core.TraceRecovery + 1]float64
	var order []core.TraceKind
	for _, ev := range events {
		if n[ev.Kind] == 0 {
			order = append(order, ev.Kind)
		}
		n[ev.Kind]++
		sec[ev.Kind] += ev.Duration()
	}
	parts := make([]string, 0, len(order))
	for _, k := range order {
		share := 0.0
		if total > 0 {
			share = 100 * sec[k] / total
		}
		parts = append(parts, fmt.Sprintf("%s x%d %.3fs (%.1f%%)", k, n[k], sec[k], share))
	}
	return strings.Join(parts, ", ")
}
