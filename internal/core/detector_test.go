package core

import (
	"math"
	"testing"
	"time"

	"imitator/internal/datasets"
)

// TestCentralDetectorContract pins what the centralized detector does to
// a run: every victim is suspected and then confirmed after exactly
// Cost.DetectionTime(), one DetectionSeconds entry per victim, and the
// simulated timeline of each row stays bit-identical. The 0.7 s interval
// row guards the float-truncation deadlock: a detection deadline that
// never expires would hang the barrier, so every row runs under a 30 s
// watchdog.
func TestCentralDetectorContract(t *testing.T) {
	g := datasets.Tiny(300, 1800, 101)
	crash := func(iter int, phase FailPhase, nodes ...int) ChaosEvent {
		return ChaosEvent{Kind: ChaosCrash, Iteration: iter, Phase: phase, Nodes: nodes}
	}
	during := func(label string, nodes ...int) ChaosEvent {
		return ChaosEvent{Kind: ChaosCrashDuringRecovery, During: label, Nodes: nodes}
	}
	rows := []struct {
		name     string
		recovery RecoveryKind
		k        int
		interval float64 // Cost.HeartbeatInterval override; 0 keeps the default
		chaos    []ChaosEvent
		victims  []int
		sim      [2]uint64 // SimSeconds bits for edge-cut, vertex-cut
	}{
		{"crash-before-barrier", RecoverRebirth, 1, 0,
			[]ChaosEvent{crash(2, FailBeforeBarrier, 1)}, []int{1},
			[2]uint64{0x3ff9468dd392b9aa, 0x3ffb5561da2fa742}},
		{"two-victims-after-barrier", RecoverRebirth, 2, 0,
			[]ChaosEvent{crash(2, FailAfterBarrier, 4, 1)}, []int{1, 4},
			[2]uint64{0x3ff943fa844e6722, 0x3ffb3ac092044db4}},
		{"crashrec-rebirth-reload", RecoverRebirth, 2, 0,
			[]ChaosEvent{crash(2, FailBeforeBarrier, 1), during("rebirth:reload", 3)}, []int{1, 3},
			[2]uint64{0x4008e40b159622a8, 0x400aa86aafed69bd}},
		// Re-recorded when the restarted pass began to repair the masters
		// its interrupted attempt had pruned (restartGoldens).
		{"crashrec-migration-promote", RecoverMigration, 2, 0,
			[]ChaosEvent{crash(2, FailBeforeBarrier, 1), during("migration:promote", 3)}, []int{1, 3},
			[2]uint64{0x4008f0470843e2f6, 0x4009a6ff1f6bda20}},
		{"partition", RecoverRebirth, 1, 0,
			[]ChaosEvent{{Kind: ChaosPartition, Iteration: 2, HealIter: 4, Nodes: []int{2}}}, []int{2},
			[2]uint64{0x3ff94186b30d0825, 0x3ffb75ad490a1610}},
		{"interval-0.7s", RecoverRebirth, 2, 0.7,
			[]ChaosEvent{crash(2, FailBeforeBarrier, 1)}, []int{1},
			[2]uint64{0x400180713614d69a, 0x400282b31126177a}},
	}
	for mi, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		for _, row := range rows {
			t.Run(mode.String()+"/"+row.name, func(t *testing.T) {
				cfg := DefaultConfig(mode, 6)
				cfg.MaxIter = 6
				cfg.FT.K = row.k
				cfg.Recovery = row.recovery
				cfg.MaxRebirths = 8
				if row.interval > 0 {
					cfg.Cost.HeartbeatInterval = row.interval
					cfg.Cost.DetectMissedBeats = 3
				}
				cfg.Chaos = row.chaos
				cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
				if err != nil {
					t.Fatal(err)
				}
				type outcome struct {
					res *Result[float64]
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := cl.Run()
					done <- outcome{res, err}
				}()
				var res *Result[float64]
				select {
				case o := <-done:
					if o.err != nil {
						t.Fatal(o.err)
					}
					res = o.res
				case <-time.After(30 * time.Second):
					t.Fatal("crash detection deadlocked: the detection deadline never expired")
				}

				m := res.Membership
				if m == nil || m.Mode != "centralized" {
					t.Fatalf("Membership = %+v, want mode centralized", m)
				}
				want := math.Float64bits(cfg.Cost.DetectionTime())
				if len(m.DetectionSeconds) != len(row.victims) {
					t.Fatalf("DetectionSeconds = %v, want one entry per victim %v", m.DetectionSeconds, row.victims)
				}
				for i, s := range m.DetectionSeconds {
					if math.Float64bits(s) != want {
						t.Errorf("DetectionSeconds[%d] = %v, want DetectionTime %v", i, s, cfg.Cost.DetectionTime())
					}
				}
				for _, v := range row.victims {
					if cl.coord.Suspected(v) {
						t.Errorf("confirmed victim %d still suspected", v)
					}
					if row.recovery == RecoverMigration && cl.coord.Alive(v) {
						t.Errorf("migrated-away victim %d still a member", v)
					}
				}
				if got := math.Float64bits(res.SimSeconds); got != row.sim[mi] {
					t.Errorf("SimSeconds = %v (bits %#x), want bits %#x", res.SimSeconds, got, row.sim[mi])
				}
			})
		}
	}
}
