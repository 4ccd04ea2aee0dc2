package imitator_test

import (
	"reflect"
	"testing"

	"imitator/internal/core"
	"imitator/pkg/imitator"
)

// TestFTStrategyMapping pins each typed constructor to the engine config it
// produces.
func TestFTStrategyMapping(t *testing.T) {
	cases := map[string]struct {
		ft    imitator.FTStrategy
		check func(t *testing.T, c imitator.Config)
	}{
		"replication": {
			imitator.Replication(imitator.ReplicationK(2), imitator.ReplicationSelfish(false)),
			func(t *testing.T, c imitator.Config) {
				if c.Recovery != imitator.RecoverRebirth || c.FT.K != 2 || c.FT.SelfishOpt {
					t.Errorf("replication config wrong: %+v", c)
				}
			},
		},
		"replication-fallback": {
			imitator.Replication(imitator.ReplicationFallback()),
			func(t *testing.T, c imitator.Config) {
				if !c.RebirthFallback || c.FT.K != 1 {
					t.Errorf("fallback config wrong: %+v", c)
				}
			},
		},
		"migration": {
			imitator.Migration(),
			func(t *testing.T, c imitator.Config) {
				if c.Recovery != imitator.RecoverMigration || c.FT.K != 1 {
					t.Errorf("migration config wrong: %+v", c)
				}
			},
		},
		"checkpoint": {
			imitator.Checkpoint(3, imitator.CheckpointInMemory()),
			func(t *testing.T, c imitator.Config) {
				ck := c.Checkpoint
				if c.Recovery != imitator.RecoverCheckpoint || ck.Interval != 3 || !ck.InMemory {
					t.Errorf("checkpoint config wrong: %+v", c)
				}
			},
		},
		"logged": {
			imitator.LoggedRecovery(imitator.LoggedCompactEvery(4)),
			func(t *testing.T, c imitator.Config) {
				if c.Recovery != imitator.RecoverLogged || c.Logged.CompactEvery != 4 {
					t.Errorf("logged config wrong: %+v", c)
				}
			},
		},
		"none": {
			imitator.NoRecovery(),
			func(t *testing.T, c imitator.Config) {
				if c.Recovery != imitator.RecoverNone {
					t.Errorf("none config wrong: %+v", c)
				}
			},
		},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			cfg := imitator.New(imitator.WithFTStrategy(tc.ft))
			tc.check(t, cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("strategy config does not validate: %v", err)
			}
		})
	}
}

// TestStrategyIdempotent: applying the same strategy twice is a no-op, so
// CLI layers can safely re-apply a resolved strategy.
func TestStrategyIdempotent(t *testing.T) {
	once := imitator.New(imitator.WithFTStrategy(imitator.Checkpoint(3)))
	twice := imitator.New(
		imitator.WithFTStrategy(imitator.Checkpoint(3)),
		imitator.WithFTStrategy(imitator.Checkpoint(3)),
	)
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("Checkpoint(3) not idempotent:\n%+v\n%+v", once, twice)
	}
}

// TestLoggedRecoveryEndToEnd drives the new strategy through the facade and
// reads the uniform stats back.
func TestLoggedRecoveryEndToEnd(t *testing.T) {
	g := ring(t, 200)
	cfg := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(8),
		imitator.WithFTStrategy(imitator.LoggedRecovery(imitator.LoggedCompactEvery(3))),
		imitator.WithFailures(imitator.Crash(5, imitator.FailBeforeBarrier, 2)),
	)
	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Kind != "logged" {
		t.Fatalf("recoveries = %+v, want one logged", res.Recoveries)
	}
	if res.Recoveries[0].ReplayIters != 0 {
		t.Errorf("ReplayIters = %d, want 0 (failure-confined)", res.Recoveries[0].ReplayIters)
	}
	if res.Recoveries[0].LogReplaySupersteps == 0 {
		t.Error("no log supersteps replayed")
	}
	st := res.Strategy
	if st.Kind != "logged" || st.PersistCount != 8 || st.LogRecords == 0 || st.Recoveries != 1 {
		t.Errorf("Strategy stats wrong: %+v", st)
	}

	// The same run fault-free matches bit-for-bit.
	base := cfg
	base.Chaos = nil
	want, err := imitator.Run(base, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Values {
		if res.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: %g != %g", v, res.Values[v], want.Values[v])
		}
	}
	_ = core.RecoverLogged // facade const aliases the engine's
}
