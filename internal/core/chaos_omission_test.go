package core_test

import (
	"testing"

	"imitator/internal/core"
	"imitator/internal/datasets"
)

// omissionEvents builds a schedule soaking several links in drop,
// duplicate and reorder faults from iteration 1.
func omissionEvents() []core.ChaosEvent {
	return []core.ChaosEvent{
		{Kind: core.ChaosDrop, Iteration: 1, From: 0, To: 2, Prob: 0.35},
		{Kind: core.ChaosDrop, Iteration: 1, From: 3, To: 1, Prob: 0.25},
		{Kind: core.ChaosDuplicate, Iteration: 1, From: 2, To: 4, Prob: 0.4},
		{Kind: core.ChaosDuplicate, Iteration: 1, From: 1, To: 0, Prob: 0.3},
		{Kind: core.ChaosReorder, Iteration: 1, From: 4, To: 3, Prob: 0.5},
		{Kind: core.ChaosReorder, Iteration: 1, From: 5, To: 2, Prob: 0.3},
	}
}

// TestChaosOmissionConvergence checks that a lossy, duplicating,
// reordering network mixed with a crash still converges to the
// bit-exact fault-free result in both modes: the reliable layer delivers
// every frame exactly once, in order, and recovery runs unchanged.
func TestChaosOmissionConvergence(t *testing.T) {
	g := datasets.Tiny(600, 3600, 97)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		clean := ftConfig(mode, 6, 8, 2, core.RecoverRebirth)
		want := runPR(t, clean, g)

		lossy := ftConfig(mode, 6, 8, 2, core.RecoverRebirth)
		lossy.Chaos = append(omissionEvents(), core.ChaosEvent{
			Kind: core.ChaosCrash, Iteration: 3, Phase: core.FailBeforeBarrier, Nodes: []int{1},
		})
		lossy.ChaosSeed = 42
		got := runPR(t, lossy, g)

		label := mode.String()
		valuesEqual(t, label, got.Values, want.Values, 0)
		if got.Omission == nil {
			t.Fatalf("%s: omission schedule ran without omission stats", label)
		}
		st := got.Omission
		if st.Retransmits == 0 || st.DuplicatesDropped == 0 || st.Reordered == 0 {
			t.Fatalf("%s: fault channel idle: %+v", label, st)
		}
		if st.RetransmitBytes == 0 || st.AckBytes == 0 {
			t.Fatalf("%s: retransmission traffic not charged: %+v", label, st)
		}
		if got.SimSeconds <= want.SimSeconds {
			t.Fatalf("%s: lossy run %.6fs not slower than fault-free %.6fs", label, got.SimSeconds, want.SimSeconds)
		}
		if len(got.Recoveries) == 0 {
			t.Fatalf("%s: crash under omission faults reported no recovery", label)
		}
	}
}

// TestChaosPartitionFencedAfterRebirth is the split-brain scenario: node
// 1 is partitioned mid-run (its frames park in the cable), Rebirth
// rebuilds the slot with a bumped epoch, and when the partition heals
// the old incarnation's frames are counted and dropped by the fence —
// the final vertex state bit-matches the fault-free run.
func TestChaosPartitionFencedAfterRebirth(t *testing.T) {
	g := datasets.Tiny(600, 3600, 98)
	for _, mode := range []core.Mode{core.EdgeCutMode, core.VertexCutMode} {
		clean := ftConfig(mode, 6, 8, 2, core.RecoverRebirth)
		want := runPR(t, clean, g)

		cfg := ftConfig(mode, 6, 8, 2, core.RecoverRebirth)
		cfg.Chaos = []core.ChaosEvent{
			{Kind: core.ChaosPartition, Iteration: 2, HealIter: 5, Nodes: []int{1}},
		}
		cfg.ChaosSeed = 7
		got := runPR(t, cfg, g)

		label := mode.String()
		valuesEqual(t, label, got.Values, want.Values, 0)
		if got.Omission == nil {
			t.Fatalf("%s: partition ran without omission stats", label)
		}
		st := got.Omission
		if st.Parked == 0 {
			t.Fatalf("%s: partition parked no frames: %+v", label, st)
		}
		if st.Released == 0 {
			t.Fatalf("%s: heal released no frames: %+v", label, st)
		}
		if st.Fenced == 0 {
			t.Fatalf("%s: no stale-epoch frames were fenced: %+v", label, st)
		}
		if len(got.Recoveries) == 0 {
			t.Fatalf("%s: partitioned node was not recovered", label)
		}
	}
}

// TestChaosOmissionDeterministic: same lossy schedule + same seed =>
// bit-identical retransmit counts, simulated time and byte streams.
func TestChaosOmissionDeterministic(t *testing.T) {
	g := datasets.Tiny(500, 3000, 99)
	run := func(seed uint64) *core.Result[float64] {
		cfg := ftConfig(core.EdgeCutMode, 6, 8, 2, core.RecoverRebirth)
		cfg.Chaos = append(omissionEvents(), core.ChaosEvent{
			Kind: core.ChaosPartition, Iteration: 3, HealIter: 6, Nodes: []int{2},
		})
		cfg.ChaosSeed = seed
		return runPR(t, cfg, g)
	}
	a, b := run(42), run(42)
	if a.SimSeconds != b.SimSeconds {
		t.Fatalf("SimSeconds diverged: %v != %v", a.SimSeconds, b.SimSeconds)
	}
	if a.Metrics.TotalBytes() != b.Metrics.TotalBytes() {
		t.Fatalf("bytes diverged: %d != %d", a.Metrics.TotalBytes(), b.Metrics.TotalBytes())
	}
	if *a.Omission != *b.Omission {
		t.Fatalf("omission stats diverged:\n%+v\n%+v", *a.Omission, *b.Omission)
	}
	valuesEqual(t, "replay", a.Values, b.Values, 0)
	// A different seed draws a different loss pattern from the same
	// probabilities.
	c := run(1042)
	if *c.Omission == *a.Omission {
		t.Fatalf("different seeds drew identical fates: %+v", *a.Omission)
	}
	valuesEqual(t, "other-seed", c.Values, a.Values, 0)
}

// TestChaosOmissionZeroCostWhenDisabled: a schedule without omission
// events must not install the layer at all.
func TestChaosOmissionZeroCostWhenDisabled(t *testing.T) {
	g := datasets.Tiny(300, 1800, 100)
	cfg := ftConfig(core.EdgeCutMode, 6, 6, 2, core.RecoverRebirth)
	cfg.Chaos = crashAt(2, core.FailBeforeBarrier, 1)
	res := runPR(t, cfg, g)
	if res.Omission != nil {
		t.Fatalf("crash-only schedule installed the omission layer: %+v", *res.Omission)
	}
}
