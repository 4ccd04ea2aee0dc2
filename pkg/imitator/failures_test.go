package imitator_test

import (
	"errors"
	"testing"

	"imitator/pkg/imitator"
)

// TestFailureScheduleBuilders: composed schedules survive a multi-failure
// run — a crash, a second crash during its recovery, and degradation —
// and the result reports every recovery.
func TestFailureScheduleBuilders(t *testing.T) {
	g := ring(t, 240)
	cfg := imitator.New(
		imitator.WithNodes(6),
		imitator.WithIterations(8),
		imitator.WithFTStrategy(imitator.Migration(imitator.ReplicationK(2))),
		imitator.WithFailures(
			imitator.Crash(3, imitator.FailBeforeBarrier, 1),
			imitator.CrashDuringRecoveryAt("migration:repair", 4),
			imitator.SlowLink(2, 0, 3, 4),
			imitator.DelayBurst(5, 0.1),
		),
	)
	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) == 0 {
		t.Fatal("no recoveries reported")
	}
	last := res.Recoveries[len(res.Recoveries)-1]
	if len(last.Failed) != 2 {
		t.Fatalf("final recovery covered %v, want both victims", last.Failed)
	}
	if last.Kind != "migration" || last.Bytes <= 0 || last.RecoveredVertices <= 0 {
		t.Fatalf("report incomplete: %+v", last)
	}

	// The same values as the fault-free run, bit for bit (edge-cut).
	clean := imitator.New(
		imitator.WithNodes(6),
		imitator.WithIterations(8),
		imitator.WithFTStrategy(imitator.Migration(imitator.ReplicationK(2))),
	)
	want, err := imitator.Run(clean, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Values {
		if res.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: %v != fault-free %v", v, res.Values[v], want.Values[v])
		}
	}
}

// TestOmissionBuilders: the lossy-network builders run a job through
// drop/dup/reorder faults and a healed partition, converge to the
// fault-free values bit for bit, and report the wire activity.
func TestOmissionBuilders(t *testing.T) {
	g := ring(t, 240)
	opts := func(extra ...imitator.Option) []imitator.Option {
		return append([]imitator.Option{
			imitator.WithNodes(6),
			imitator.WithIterations(8),
			imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(2))),
			imitator.WithMaxRebirths(8),
		}, extra...)
	}
	want, err := imitator.Run(imitator.New(opts()...), g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if want.Omission != nil {
		t.Fatalf("fault-free run reported omission stats: %+v", *want.Omission)
	}

	cfg := imitator.New(opts(
		imitator.WithFailures(
			imitator.Drop(1, 0, 2, 0.35),
			imitator.Duplicate(1, 2, 4, 0.4),
			imitator.Reorder(1, 4, 3, 0.5),
			imitator.Partition(2, 5, 1),
		),
		imitator.WithChaosSeed(42),
	)...)
	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Values {
		if res.Values[v] != want.Values[v] {
			t.Fatalf("vertex %d: %v != fault-free %v", v, res.Values[v], want.Values[v])
		}
	}
	if res.Omission == nil {
		t.Fatal("omission schedule reported no omission stats")
	}
	if res.Omission.Retransmits == 0 || res.Omission.Fenced == 0 {
		t.Fatalf("omission layer idle: %+v", *res.Omission)
	}
	if len(res.Recoveries) == 0 {
		t.Fatal("partitioned node was not recovered")
	}

	// A drop probability above the cap is rejected up front.
	bad := imitator.New(opts(imitator.WithFailures(
		imitator.Drop(1, 0, 2, imitator.MaxDropRate+0.01),
	))...)
	if _, err := imitator.Run(bad, g, imitator.NewPageRank(g.NumVertices())); !errors.Is(err, imitator.ErrInvalidSchedule) {
		t.Fatalf("over-cap drop rate: err = %v, want ErrInvalidSchedule", err)
	}
}

// TestCrashRidesChaosPath: Crash events land in the chaos schedule.
func TestCrashRidesChaosPath(t *testing.T) {
	cfg := imitator.New(imitator.WithFailures(imitator.Crash(4, imitator.FailAfterBarrier, 2)))
	if len(cfg.Chaos) != 1 || cfg.Chaos[0].Iteration != 4 {
		t.Fatalf("Crash chaos event wrong: %+v", cfg.Chaos)
	}
}

// TestTypedErrors: sentinel errors surface through the facade and chain
// into ErrUnrecoverable.
func TestTypedErrors(t *testing.T) {
	g := ring(t, 120)

	exhausted := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(6),
		imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1))),
		imitator.WithMaxRebirths(0),
		imitator.WithFailures(imitator.Crash(2, imitator.FailBeforeBarrier, 1)),
	)
	_, err := imitator.Run(exhausted, g, imitator.NewPageRank(g.NumVertices()))
	if !errors.Is(err, imitator.ErrNoStandby) || !errors.Is(err, imitator.ErrUnrecoverable) {
		t.Fatalf("exhaustion err = %v, want ErrNoStandby wrapping ErrUnrecoverable", err)
	}

	beyondK := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(6),
		imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1))),
		imitator.WithFailures(imitator.Crash(2, imitator.FailBeforeBarrier, 1, 2)),
	)
	_, err = imitator.Run(beyondK, g, imitator.NewPageRank(g.NumVertices()))
	if !errors.Is(err, imitator.ErrTooManyFailures) || !errors.Is(err, imitator.ErrUnrecoverable) {
		t.Fatalf("beyond-K err = %v, want ErrTooManyFailures wrapping ErrUnrecoverable", err)
	}

	everyNode := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(6),
		imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1))),
		imitator.WithFailures(imitator.Crash(2, imitator.FailBeforeBarrier, 0, 1, 2, 3)),
	)
	_, err = imitator.Run(everyNode, g, imitator.NewPageRank(g.NumVertices()))
	if !errors.Is(err, imitator.ErrTooManyFailures) || !errors.Is(err, imitator.ErrUnrecoverable) {
		t.Fatalf("every-node crash err = %v, want ErrTooManyFailures wrapping ErrUnrecoverable", err)
	}

	invalid := imitator.New(
		imitator.WithNodes(4),
		imitator.WithIterations(6),
		imitator.WithFailures(imitator.Crash(99, imitator.FailBeforeBarrier, 1)),
	)
	_, err = imitator.Run(invalid, g, imitator.NewPageRank(g.NumVertices()))
	if !errors.Is(err, imitator.ErrInvalidSchedule) {
		t.Fatalf("invalid schedule err = %v, want ErrInvalidSchedule", err)
	}
}

// TestRebirthFallbackOption: exhaustion + fallback completes as migration.
func TestRebirthFallbackOption(t *testing.T) {
	g := ring(t, 180)
	cfg := imitator.New(
		imitator.WithNodes(5),
		imitator.WithIterations(6),
		imitator.WithFTStrategy(imitator.Replication(imitator.ReplicationK(1), imitator.ReplicationFallback())),
		imitator.WithMaxRebirths(0),
		imitator.WithFailures(imitator.Crash(2, imitator.FailBeforeBarrier, 1)),
	)
	res, err := imitator.Run(cfg, g, imitator.NewPageRank(g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Kind != "migration" || !res.Recoveries[0].Fallback {
		t.Fatalf("recoveries = %+v, want one migration fallback", res.Recoveries)
	}
}

// TestScheduleGrammarFacade: parse and format round-trip through the
// public helpers.
func TestScheduleGrammarFacade(t *testing.T) {
	sched := imitator.FailureSchedule{
		imitator.Crash(3, imitator.FailBeforeBarrier, 1, 4),
		imitator.CrashDuringRecoveryAt("rebirth:reload", 2),
		imitator.SlowLink(2, 0, 3, 8),
		imitator.DelayBurst(4, 0.25),
	}
	text := sched.String()
	back, err := imitator.ParseFailureSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != text {
		t.Fatalf("round trip: %q != %q", back.String(), text)
	}
	if _, err := imitator.ParseFailureSchedule("crash@3=1"); !errors.Is(err, imitator.ErrInvalidSchedule) {
		t.Fatalf("bad grammar err = %v, want ErrInvalidSchedule", err)
	}
}

// TestCrashDuringRecoveryLabelValidated: a crashrec label that is a prefix
// of no recovery phase parses (the grammar cannot know the labels) but is
// rejected by Validate — the event could never fire, and the run would
// report success as if the schedule had been exercised. The empty label and
// strategy prefixes stay legal.
func TestCrashDuringRecoveryLabelValidated(t *testing.T) {
	for text, ok := range map[string]bool{
		"crash@3b=1|crashrec@migraton:repair=4":  false,
		"crash@3b=1|crashrec@migration:repair=4": true,
		"crash@3b=1|crashrec@migration:=4":       true,
		"crash@3b=1|crashrec=4":                  true,
	} {
		sched, err := imitator.ParseFailureSchedule(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		cfg := imitator.New(imitator.WithNodes(6), imitator.WithFailures(sched...))
		err = cfg.Validate()
		if ok && err != nil {
			t.Errorf("%q: Validate = %v, want nil", text, err)
		}
		if !ok && !errors.Is(err, imitator.ErrInvalidSchedule) {
			t.Errorf("%q: Validate = %v, want ErrInvalidSchedule", text, err)
		}
	}
}
