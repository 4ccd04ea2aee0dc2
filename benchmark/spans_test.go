package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "job", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},  // overlaps a: only 30..50 is new cover
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // clipped to the parent's end
		{Name: "a1", Start: ms(12), End: ms(17), Parent: 1}, // a grandchild does not touch job's self time
		{Name: "other", Start: ms(0), End: ms(40), Parent: -1},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(50), ms(15), ms(30), ms(30), ms(5), ms(40)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

// The reconciliation check: what load and run leave unexplained of a job.
func TestUnattributedPct(t *testing.T) {
	var spans []span
	for job, gap := range []int{1, 2, 9} { // median gap is 2 of 100
		root := len(spans)
		spans = append(spans,
			span{Name: "job", Start: ms(0), End: ms(100), Parent: -1, Job: job},
			span{Name: "core.load", Start: ms(0), End: ms(40), Parent: root, Job: job},
			span{Name: "core.run", Start: ms(40 + gap), End: ms(100), Parent: root, Job: job},
		)
	}
	spans = append(spans, span{Name: "setup", Start: ms(0), End: ms(500), Parent: -1, Job: -1})
	if got := unattributedPct(spans, "job"); got != 2 {
		t.Errorf("unattributedPct = %v, want 2", got)
	}
	if got := unattributedPct(nil, "job"); got != 0 {
		t.Errorf("unattributedPct without jobs = %v, want 0", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	r.add("y", time.Now(), time.Now(), -1, 0)
	if id != -1 {
		t.Errorf("nil recorder handed out span %d", id)
	}
}

func TestChromeTraceRoundTrips(t *testing.T) {
	r := newRecorder()
	root := r.begin("job", -1, 3)
	child := r.begin("core.load", root, 3)
	r.end(child)
	r.end(root)
	dir := filepath.Join(t.TempDir(), "traces")
	if err := r.writeChrome(dir, "t.json"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Args struct{ Parent, Job int }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "core.load" || ev.Ph != "X" || ev.Tid != 3 || ev.Args.Parent != root || ev.Args.Job != 3 {
		t.Errorf("child event = %+v", ev)
	}
}
