package trace

import (
	"strings"
	"testing"

	"imitator/internal/core"
)

func sampleEvents() []core.TraceEvent {
	return []core.TraceEvent{
		{Iter: 0, Kind: "iteration", Start: 0, End: 1},
		{Iter: 1, Kind: "iteration", Start: 1, End: 2},
		{Iter: 2, Kind: "checkpoint", Start: 2, End: 2.5},
		{Iter: 2, Kind: "recovery", Start: 2.5, End: 4},
		{Iter: 2, Kind: "iteration", Start: 4, End: 5},
	}
}

func TestRenderMarksKinds(t *testing.T) {
	var sb strings.Builder
	Render(&sb, sampleEvents())
	out := sb.String()
	if !strings.Contains(out, "C") || !strings.Contains(out, "R") || !strings.Contains(out, "#") {
		t.Errorf("missing kind markers:\n%s", out)
	}
	if !strings.Contains(out, "total") {
		t.Error("missing total line")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(sampleEvents())+1 {
		t.Errorf("got %d lines, want %d", len(lines), len(sampleEvents())+1)
	}
}

func TestRenderEmpty(t *testing.T) {
	var sb strings.Builder
	Render(&sb, nil)
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty trace should say so")
	}
}

func TestRenderCoalescesLongRuns(t *testing.T) {
	var events []core.TraceEvent
	for i := 0; i < 100; i++ {
		events = append(events, core.TraceEvent{
			Iter: i, Kind: "iteration", Start: float64(i), End: float64(i + 1),
		})
	}
	events = append(events, core.TraceEvent{Iter: 100, Kind: "recovery", Start: 100, End: 105})
	var sb strings.Builder
	Render(&sb, events)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) > 5 {
		t.Errorf("coalescing failed: %d lines", len(lines))
	}
}

func TestSummary(t *testing.T) {
	s := Summary(sampleEvents())
	for _, want := range []string{"iteration x3", "checkpoint x1", "recovery x1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if Summary(nil) != "empty trace" {
		t.Error("empty summary")
	}
}
