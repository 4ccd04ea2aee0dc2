package imitator_test

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its table via internal/experiments and reports the
// headline numbers as custom metrics, so `go test -bench=.` reproduces the
// whole evaluation. A full pass over a figure can take seconds to minutes;
// use -benchtime=1x (the default 1s budget already yields b.N==1 for the
// heavy ones) and see cmd/bench for the rendered tables.

import (
	"strconv"
	"strings"
	"testing"

	"imitator/internal/experiments"
)

func benchOptions() experiments.Options {
	// Defaults keeps the simulated width at 1 so the reported metrics do not
	// depend on the host; -cpu still scales real wall clock through
	// Config.HostParallelism.
	o := experiments.Defaults()
	if testing.Short() {
		o.Small = true
		o.Nodes = 4
		o.Iters = 4
	}
	return o
}

// runExperiment executes the experiment once per b.N and reports a metric
// extracted from the resulting table.
func runExperiment(b *testing.B, fn func(experiments.Options) (*experiments.Table, error),
	metric func(*experiments.Table) (float64, string)) {
	b.Helper()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t, err := fn(o)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			if v, unit := metric(t); unit != "" {
				b.ReportMetric(v, unit)
			}
		}
	}
}

// cell parses a float prefix out of a table cell like "1.234" or "+5.6%".
func cell(t *experiments.Table, row, col int) float64 {
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return 0
	}
	s := strings.TrimSuffix(strings.TrimPrefix(t.Rows[row][col], "+"), "%")
	s = strings.Fields(s)[0]
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkTable1Datasets(b *testing.B) {
	runExperiment(b, experiments.Table1Datasets, func(t *experiments.Table) (float64, string) {
		return float64(len(t.Rows)), "datasets"
	})
}

func BenchmarkFig2aCheckpointCost(b *testing.B) {
	runExperiment(b, experiments.Fig2aCheckpointCost, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 2), "ckpt-sec"
	})
}

func BenchmarkFig2bCheckpointIntervals(b *testing.B) {
	runExperiment(b, experiments.Fig2bCheckpointIntervals, func(t *experiments.Table) (float64, string) {
		return cell(t, 1, 2), "interval1-overhead-%"
	})
}

func BenchmarkFig2cCheckpointRecovery(b *testing.B) {
	runExperiment(b, experiments.Fig2cCheckpointRecovery, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 4), "recovery-sec"
	})
}

func BenchmarkFig3Replicas(b *testing.B) {
	runExperiment(b, experiments.Fig3Replicas, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 1), "noreplica-%"
	})
}

func BenchmarkFig7RuntimeOverheadEdgeCut(b *testing.B) {
	runExperiment(b, experiments.Fig7RuntimeOverheadEdgeCut, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 2), "rep-overhead-%"
	})
}

func BenchmarkFig8SelfishOptimization(b *testing.B) {
	runExperiment(b, experiments.Fig8SelfishOptimization, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 3), "redundant-msgs-%"
	})
}

func BenchmarkTable2RecoveryEdgeCut(b *testing.B) {
	runExperiment(b, experiments.Table2RecoveryEdgeCut, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 2), "rebirth-sec"
	})
}

func BenchmarkFig9RecoveryScalability(b *testing.B) {
	runExperiment(b, experiments.Fig9RecoveryScalability, func(t *experiments.Table) (float64, string) {
		return cell(t, len(t.Rows)-1, 1), "rebirth-sec-maxnodes"
	})
}

func BenchmarkFig10Fennel(b *testing.B) {
	runExperiment(b, experiments.Fig10Fennel, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 2), "fennel-rf"
	})
}

func BenchmarkFig11MultiFailureEdgeCut(b *testing.B) {
	runExperiment(b, experiments.Fig11MultiFailureEdgeCut, func(t *experiments.Table) (float64, string) {
		return cell(t, 2, 1), "k3-overhead-%"
	})
}

func BenchmarkTable3MemoryEdgeCut(b *testing.B) {
	runExperiment(b, experiments.Table3MemoryEdgeCut, func(t *experiments.Table) (float64, string) {
		return cell(t, len(t.Rows)-1, 4), "ft3-mem-overhead-%"
	})
}

func BenchmarkFig12CaseStudy(b *testing.B) {
	runExperiment(b, experiments.Fig12CaseStudy, func(t *experiments.Table) (float64, string) {
		return cell(t, 4, 2), "migration-recovery-sec"
	})
}

func BenchmarkFig13RuntimeOverheadVertexCut(b *testing.B) {
	runExperiment(b, experiments.Fig13RuntimeOverheadVertexCut, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 2), "rep-overhead-%"
	})
}

func BenchmarkTable5RecoveryVertexCut(b *testing.B) {
	runExperiment(b, experiments.Table5RecoveryVertexCut, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 2), "rebirth-sec"
	})
}

func BenchmarkFig14PartitioningVertexCut(b *testing.B) {
	runExperiment(b, experiments.Fig14PartitioningVertexCut, func(t *experiments.Table) (float64, string) {
		return cell(t, len(t.Rows)-1, 1), "hybrid-rf"
	})
}

func BenchmarkFig15MultiFailureVertexCut(b *testing.B) {
	runExperiment(b, experiments.Fig15MultiFailureVertexCut, func(t *experiments.Table) (float64, string) {
		return cell(t, 2, 1), "k3-overhead-%"
	})
}

func BenchmarkTable6CommunicationVertexCut(b *testing.B) {
	runExperiment(b, experiments.Table6CommunicationVertexCut, func(t *experiments.Table) (float64, string) {
		return cell(t, len(t.Rows)-1, 4), "hybrid-ft3-comm-%"
	})
}

func BenchmarkTable7MemoryVertexCut(b *testing.B) {
	runExperiment(b, experiments.Table7MemoryVertexCut, func(t *experiments.Table) (float64, string) {
		return cell(t, len(t.Rows)-1, 4), "hybrid-ft3-mem-%"
	})
}

func BenchmarkYoungModelEfficiency(b *testing.B) {
	runExperiment(b, experiments.YoungModelEfficiency, func(t *experiments.Table) (float64, string) {
		return cell(t, 1, 3), "rep-efficiency-%"
	})
}

func BenchmarkAblationMirrorPlacement(b *testing.B) {
	runExperiment(b, experiments.AblationMirrorPlacement, func(t *experiments.Table) (float64, string) {
		return cell(t, 0, 2), "balanced-migration-sec"
	})
}

func BenchmarkAblationPositionalRecovery(b *testing.B) {
	runExperiment(b, experiments.AblationPositionalRecovery, func(t *experiments.Table) (float64, string) {
		return cell(t, 3, 1), "reconstruct-sec"
	})
}
