// Package trace renders execution timelines (the Fig 12 case-study view):
// per-iteration bars on the simulated-time axis, with checkpoints and
// recoveries highlighted.
package trace

import (
	"fmt"
	"io"
	"strings"

	"imitator/internal/core"
)

// Rendering constants: the bar area is width characters wide, and a
// trace longer than coalesceOver events merges consecutive iteration rows.
const (
	width        = 60
	coalesceOver = 40
)

// Render writes an ASCII Gantt of the events.
func Render(w io.Writer, events []core.TraceEvent) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	end := events[len(events)-1].End
	if end <= 0 {
		end = 1
	}
	scale := float64(width) / end

	rows := events
	if len(rows) > coalesceOver {
		rows = coalesce(rows)
	}
	for _, ev := range rows {
		startCol := int(ev.Start * scale)
		length := int(ev.Duration()*scale + 0.5)
		if length < 1 {
			length = 1
		}
		if startCol+length > width {
			length = width - startCol
			if length < 1 {
				length = 1
			}
		}
		mark := byte('#')
		switch ev.Kind {
		case "checkpoint":
			mark = 'C'
		case "recovery":
			mark = 'R'
		}
		bar := strings.Repeat(" ", startCol) + strings.Repeat(string(mark), length)
		fmt.Fprintf(w, "%9.3fs  %-10s %4s  |%s\n", ev.Start, ev.Kind, iterLabel(ev), bar)
	}
	fmt.Fprintf(w, "%9.3fs  total\n", end)
}

func iterLabel(ev core.TraceEvent) string {
	return fmt.Sprintf("%d", ev.Iter)
}

// coalesce merges runs of consecutive same-kind events into one row.
func coalesce(events []core.TraceEvent) []core.TraceEvent {
	var out []core.TraceEvent
	for _, ev := range events {
		if n := len(out); n > 0 && out[n-1].Kind == ev.Kind && ev.Kind == "iteration" {
			out[n-1].End = ev.End
			continue
		}
		out = append(out, ev)
	}
	return out
}

// Summary returns a one-line digest: counts and time share per kind.
func Summary(events []core.TraceEvent) string {
	if len(events) == 0 {
		return "empty trace"
	}
	total := events[len(events)-1].End
	type agg struct {
		n   int
		sec float64
	}
	byKind := map[string]*agg{}
	order := []string{}
	for _, ev := range events {
		a, ok := byKind[ev.Kind]
		if !ok {
			a = &agg{}
			byKind[ev.Kind] = a
			order = append(order, ev.Kind)
		}
		a.n++
		a.sec += ev.Duration()
	}
	parts := make([]string, 0, len(order))
	for _, k := range order {
		a := byKind[k]
		share := 0.0
		if total > 0 {
			share = 100 * a.sec / total
		}
		parts = append(parts, fmt.Sprintf("%s x%d %.3fs (%.1f%%)", k, a.n, a.sec, share))
	}
	return strings.Join(parts, ", ")
}
