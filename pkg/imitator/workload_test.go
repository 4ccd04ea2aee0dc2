package imitator_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imitator/internal/core"
	"imitator/pkg/imitator"
)

var update = flag.Bool("update", false, "rewrite testdata/timeline.golden")

// TestTimelineGolden pins the rendered timeline and its one-line summary of
// a checkpoint run and a logged run, each with one crash, byte for byte:
// together they draw all four span kinds.
func TestTimelineGolden(t *testing.T) {
	g, err := imitator.LoadDataset("dblp")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, strat := range []imitator.FTStrategy{
		imitator.Checkpoint(2),
		imitator.LoggedRecovery(imitator.LoggedCompactEvery(3)),
	} {
		cfg := imitator.New(
			imitator.WithNodes(4),
			imitator.WithIterations(6),
			imitator.WithFTStrategy(strat),
			imitator.WithFailures(imitator.Crash(3, imitator.FailBeforeBarrier, 1)),
		)
		s, err := imitator.RunWorkloadOn(imitator.Workload{Algo: "pagerank", Dataset: "dblp", Iters: 6}, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		imitator.RenderTimeline(&sb, s.Trace)
		sb.WriteString(imitator.TimelineSummary(s.Trace) + "\n")
	}
	path := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("timeline drifted:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func sampleEvents() []imitator.TraceEvent {
	return []imitator.TraceEvent{
		{Iter: 0, Kind: core.TraceIteration, Start: 0, End: 1},
		{Iter: 1, Kind: core.TraceIteration, Start: 1, End: 2},
		{Iter: 2, Kind: core.TraceCheckpoint, Start: 2, End: 2.5},
		{Iter: 2, Kind: core.TraceRecovery, Start: 2.5, End: 4},
		{Iter: 2, Kind: core.TraceIteration, Start: 4, End: 5},
	}
}

func TestRenderTimelineMarksKinds(t *testing.T) {
	var sb strings.Builder
	imitator.RenderTimeline(&sb, sampleEvents())
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

func TestRenderTimelineEmpty(t *testing.T) {
	var sb strings.Builder
	imitator.RenderTimeline(&sb, nil)
	if !strings.Contains(sb.String(), "no events") {
		t.Error("empty trace should say so")
	}
}

func TestRenderTimelineCoalescesLongRuns(t *testing.T) {
	var events []imitator.TraceEvent
	for i := 0; i < 100; i++ {
		events = append(events, imitator.TraceEvent{
			Iter: i, Kind: core.TraceIteration, Start: float64(i), End: float64(i + 1),
		})
	}
	events = append(events, imitator.TraceEvent{Iter: 100, Kind: core.TraceRecovery, Start: 100, End: 105})
	var sb strings.Builder
	imitator.RenderTimeline(&sb, events)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) > 5 {
		t.Errorf("coalescing failed: %d lines", len(lines))
	}
}

func TestTimelineSummary(t *testing.T) {
	s := imitator.TimelineSummary(sampleEvents())
	for _, want := range []string{"iteration x3", "checkpoint x1", "recovery x1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	if imitator.TimelineSummary(nil) != "empty trace" {
		t.Error("empty summary")
	}
}
