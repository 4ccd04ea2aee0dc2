package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// runSet is one record file: the end-to-end values of its untraced runs,
// by workload and metric, in file order.
type runSet map[string]map[string][]float64

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// judge compares two sets of runs of one metric. The sets only resolve a
// difference when both are steadier than the bound: a quartile spread wider
// than the bound means the medians cannot tell a regression of that size from
// noise, and the row is unresolved, not same.
func judge(d metricDef, a, b []float64) string {
	sa, okA := spread(a)
	sb, okB := spread(b)
	ma, mb := median(a), median(b)
	if !okA || !okB {
		if ma == mb {
			return verdictSame
		}
		return verdictUnresolved
	}
	if sa > d.Bound || sb > d.Bound {
		return verdictUnresolved
	}
	change := (mb - ma) / ma
	if d.Better == higher {
		change = -change
	}
	switch {
	case change > d.Bound:
		return verdictWorse
	case change < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

// compareFiles prints one row per workload x end-to-end metric. With one
// file the rows show that set's spread against the bound (the steadiness
// check a benchmark change has to pass); with two they end in a verdict on
// the second set against the first. The result is true when a row is worse,
// or, with one file, when a gated spread exceeds its bound.
func compareFiles(paths []string, w io.Writer) (bad bool, err error) {
	if len(paths) < 1 || len(paths) > 2 {
		return false, fmt.Errorf("-compare takes one or two record files, got %d", len(paths))
	}
	sets := make([]runSet, len(paths))
	for i, p := range paths {
		if sets[i], err = readRunSet(p); err != nil {
			return false, err
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	if len(sets) == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian\tq1\tq3\tspread\tbound\tsteady")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian A\tq1..q3 A\tn\tmedian B\tq1..q3 B\tchange\tbound\tverdict")
	}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a := sets[0][wl.Name][d.Name]
			if len(a) == 0 {
				continue
			}
			q1, _, q3, _ := quartiles(a)
			if len(sets) == 1 {
				sp, _ := spread(a)
				state := "yes"
				// setup_s has the widest bound and is judged on its median
				// only, so its spread is shown but never fails the set.
				if sp > d.Bound && d.Name != "setup_s" {
					state, bad = "NO", true
				} else if sp > d.Bound/3 {
					state = "loose"
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%s\n",
					wl.Name, d.Name, d.Unit, len(a), median(a), q1, q3, 100*sp, 100*d.Bound, state)
				continue
			}
			b := sets[1][wl.Name][d.Name]
			if len(b) == 0 {
				continue
			}
			p1, _, p3, _ := quartiles(b)
			v := judge(d, a, b)
			if v == verdictWorse {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g..%.6g\t%d\t%.6g\t%.6g..%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit, len(a), median(a), q1, q3, len(b), median(b), p1, p3,
				100*(median(b)-median(a))/median(a), 100*d.Bound, v)
		}
	}
	return bad, nil
}
