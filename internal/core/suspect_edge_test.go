package core

import (
	"math"
	"testing"

	"imitator/internal/datasets"
)

// Edge cases at the suspicion/recovery boundary: advisory suspicion of a
// *survivor* raised while a recovery pass is mid-flight must never derail
// the recovery or perturb the converged result — suspicion only gates
// serve routing until it is confirmed (MarkFailed) or cleared (Join).

// suspectEdgeRun executes fakePR on a Tiny graph and returns final values.
func suspectEdgeRun(t *testing.T, cfg Config, hook func(cl *Cluster[float64, float64], phase string)) (*Cluster[float64, float64], *Result[float64]) {
	t.Helper()
	g := datasets.Tiny(240, 1400, 77)
	cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	if hook != nil {
		cl.SetRecoveryHook(func(phase string) { hook(cl, phase) })
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cl, res
}

func suspectEdgeConfig(recovery RecoveryKind) Config {
	cfg := DefaultConfig(EdgeCutMode, 5)
	cfg.MaxIter = 6
	cfg.Recovery = recovery
	cfg.MaxRebirths = 8
	cfg.Chaos = []ChaosEvent{{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}}}
	return cfg
}

// TestSuspectDuringMigrationPromote: a survivor suspected exactly while
// migration is promoting the crashed node's replicas stays a full member,
// keeps its migrated load, and the run converges to the fault-free values.
func TestSuspectDuringMigrationPromote(t *testing.T) {
	baseline := DefaultConfig(EdgeCutMode, 5)
	baseline.MaxIter = 6
	_, want := suspectEdgeRun(t, baseline, nil)

	const survivor = 2
	fired := false
	cl, got := suspectEdgeRun(t, suspectEdgeConfig(RecoverMigration),
		func(cl *Cluster[float64, float64], phase string) {
			if phase == "migration:promote" && !fired {
				fired = true
				if !cl.coord.Suspect(survivor) {
					t.Error("survivor could not be suspected during promote")
				}
			}
		})
	if !fired {
		t.Fatal("migration:promote hook never fired")
	}
	if !cl.coord.Alive(survivor) {
		t.Fatal("advisory suspicion during promote killed a survivor")
	}
	if !cl.coord.Suspected(survivor) {
		t.Fatal("unconfirmed suspicion should persist after the run")
	}
	if len(got.Recoveries) == 0 || got.Recoveries[0].Kind != "migration" {
		t.Fatalf("migration recovery missing: %+v", got.Recoveries)
	}
	for v := range want.Values {
		if math.Abs(got.Values[v]-want.Values[v]) > 1e-9 {
			t.Fatalf("vertex %d diverged: %g vs fault-free %g", v, got.Values[v], want.Values[v])
		}
	}
}

// TestSuspectHealsMidRebirth: a survivor suspected while a rebirth is
// reloading state "heals" — the detector never confirms it, so the node
// remains a member, participates in the rest of the job, and the result
// is bit-identical to the fault-free run. The crashed slot's Join must
// clear only its own suspicion, not the survivor's advisory one.
func TestSuspectHealsMidRebirth(t *testing.T) {
	baseline := DefaultConfig(EdgeCutMode, 5)
	baseline.MaxIter = 6
	_, want := suspectEdgeRun(t, baseline, nil)

	const survivor = 3
	fired := false
	cl, got := suspectEdgeRun(t, suspectEdgeConfig(RecoverRebirth),
		func(cl *Cluster[float64, float64], phase string) {
			if phase == "rebirth:reload" && !fired {
				fired = true
				cl.coord.Suspect(survivor)
				// The crashed node was suspected then confirmed; its
				// suspicion must already be gone.
				if cl.coord.Suspected(1) {
					t.Error("confirmed node 1 still suspected mid-rebirth")
				}
			}
		})
	if !fired {
		t.Fatal("rebirth:reload hook never fired")
	}
	if !cl.coord.Alive(survivor) {
		t.Fatal("healing suspect was confirmed dead")
	}
	// The rebirth's Join(1) bumped slot 1's epoch but must not have
	// touched the survivor's advisory suspicion.
	if cl.coord.Epoch(1) != 2 {
		t.Fatalf("crashed slot epoch = %d, want 2 after rebirth", cl.coord.Epoch(1))
	}
	if !cl.coord.Suspected(survivor) {
		t.Fatal("survivor's advisory suspicion cleared by an unrelated Join")
	}
	for v := range want.Values {
		if got.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d diverged: %g vs fault-free %g", v, got.Values[v], want.Values[v])
		}
	}
}

// TestSuspectOfCrashedNodeThenLateClear: the centralized two-stage path —
// Suspect fires first, MarkFailed confirms — must tolerate the inverse
// order a gossip detector can produce after a refutation: a suspicion
// that never confirms, followed by the node's normal participation.
func TestSuspectOfCrashedNodeThenLateClear(t *testing.T) {
	c, err := NewCluster[float64, float64](func() Config {
		cfg := DefaultConfig(EdgeCutMode, 4)
		cfg.MaxIter = 3
		return cfg
	}(), datasets.Tiny(120, 700, 7), fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	// Suspect, then "heal" by never confirming: the job must run to
	// completion with the suspect as a full participant.
	c.coord.Suspect(2)
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
	if !c.coord.Alive(2) || len(res.Recoveries) != 0 {
		t.Fatalf("advisory suspicion triggered recovery: alive=%v recoveries=%d",
			c.coord.Alive(2), len(res.Recoveries))
	}
}
