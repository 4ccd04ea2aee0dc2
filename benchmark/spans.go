package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share its
// id; parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string
	Start  time.Duration // since the recorder was made
	End    time.Duration
	Parent int
	Job    int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the traced pass's spans in memory until the pass ends. A
// nil recorder records nothing, which is how the end-to-end pass runs the
// same code with tracing off.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<12)}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, job int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0), Parent: parent, Job: job})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
}

// add records a span whose endpoints were taken elsewhere (hook callbacks).
func (r *recorder) add(name string, start, end time.Time, parent, job int) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: parent, Job: job})
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice, and a child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// unattributedPct is the reconciliation check: the share of each root span
// named root that none of its children account for, as the median over all
// such roots, in percent. The layer table is only worth reading while this
// stays small.
func unattributedPct(spans []span, root string) float64 {
	self := selfTimes(spans)
	var shares []float64
	for i, s := range spans {
		if s.Name == root && s.Parent < 0 && s.dur() > 0 {
			shares = append(shares, 100*float64(self[i])/float64(s.dur()))
		}
	}
	return median(shares)
}

// writeChrome writes the spans as Chrome trace-event JSON (one lane per job
// id), the format Perfetto and chrome://tracing open directly.
func (r *recorder) writeChrome(dir, file string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Job,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.Parent, "job": s.Job},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
