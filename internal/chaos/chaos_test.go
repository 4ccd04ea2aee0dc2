package chaos

import (
	"errors"
	"flag"
	"fmt"
	"testing"

	"imitator/internal/core"
)

var (
	campaignSeed   = flag.Uint64("seed", 1, "chaos campaign seed")
	campaignRounds = flag.Int("rounds", 50, "chaos campaign rounds per mode")
)

// TestScheduleRoundTrip: every event kind formats to the grammar and
// parses back to the same typed schedule.
func TestScheduleRoundTrip(t *testing.T) {
	sched := Schedule{
		{Kind: core.ChaosCrash, Iteration: 3, Phase: core.FailBeforeBarrier, Nodes: []int{1, 4}},
		{Kind: core.ChaosCrash, Iteration: 5, Phase: core.FailAfterBarrier, Nodes: []int{0}},
		{Kind: core.ChaosCrashDuringRecovery, Nodes: []int{2}},
		{Kind: core.ChaosCrashDuringRecovery, During: "migration:repair", Nodes: []int{3, 5}},
		{Kind: core.ChaosSlowLink, Iteration: 2, From: 0, To: 3, Factor: 8},
		{Kind: core.ChaosDelayBurst, Iteration: 4, Seconds: 0.25},
		{Kind: core.ChaosDrop, Iteration: 1, From: 0, To: 2, Prob: 0.35},
		{Kind: core.ChaosDuplicate, Iteration: 2, From: 3, To: 1, Prob: 0.5},
		{Kind: core.ChaosReorder, Iteration: 3, From: 4, To: 5, Prob: 0.125},
		{Kind: core.ChaosPartition, Iteration: 2, HealIter: 5, Nodes: []int{1, 3}},
	}
	text := sched.String()
	want := "crash@3b=1,4|crash@5a=0|crashrec=2|crashrec@migration:repair=3,5|slow@2=0>3x8|delay@4=0.25|" +
		"drop@1=0>2x0.35|dup@2=3>1x0.5|reorder@3=4>5x0.125|part@2~5=1,3"
	if text != want {
		t.Fatalf("format = %q, want %q", text, want)
	}
	back, err := ParseEvents(text)
	if err != nil {
		t.Fatal(err)
	}
	if Schedule(back).String() != text {
		t.Fatalf("round trip lost events: %q", Schedule(back).String())
	}
	if len(back) != len(sched) {
		t.Fatalf("parsed %d events, want %d", len(back), len(sched))
	}
	for i := range sched {
		if back[i].Kind != sched[i].Kind || back[i].Iteration != sched[i].Iteration ||
			back[i].During != sched[i].During || back[i].Factor != sched[i].Factor ||
			back[i].Seconds != sched[i].Seconds || back[i].Prob != sched[i].Prob ||
			back[i].HealIter != sched[i].HealIter {
			t.Fatalf("event %d: parsed %+v, want %+v", i, back[i], sched[i])
		}
	}
}

// TestParseErrors: malformed schedules report the typed sentinel.
func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"boom@3=1",          // unknown kind
		"crash@3=1",         // missing phase suffix
		"crash@xb=1",        // bad iteration
		"crash@3b=",         // empty node list
		"crash@3b=1;2",      // bad node separator
		"slow@1=0x4",        // missing '>' link
		"slow@1=0>2",        // missing factor
		"delay@1=fast",      // bad seconds
		"crash@3b",          // missing '='
		"crashrec@label=a,", // bad node
		"drop@1=0>2",        // missing probability
		"drop@1=0x0.3",      // missing '>' link
		"dup@x=0>2x0.3",     // bad iteration
		"reorder@1=0>2xq",   // bad probability
		"part@2=1",          // missing '~<heal>'
		"part@2~x=1",        // bad heal iteration
		"part@2~5=",         // empty node list
	} {
		if _, err := ParseEvents(bad); !errors.Is(err, core.ErrInvalidSchedule) {
			t.Fatalf("%q: err = %v, want ErrInvalidSchedule", bad, err)
		}
	}
}

// TestParseEmpty: an empty schedule is valid and empty.
func TestParseEmpty(t *testing.T) {
	if evs, err := ParseEvents("  "); err != nil || len(evs) != 0 {
		t.Fatalf("ParseEvents(blank) = %v, %v", evs, err)
	}
}

// TestCampaign runs the seeded multi-failure campaign in both modes and
// requires every round to converge to the fault-free values, with at least
// one mid-recovery restart and one standby-exhaustion fallback observed.
// Tune with -seed and -rounds.
func TestCampaign(t *testing.T) {
	camp := Campaign{Seed: *campaignSeed, Rounds: *campaignRounds}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("round %d (%s): %s\n  repro: %s", f.Round, f.Mode, f.Err, f.Repro)
	}
	if rep.Failed() {
		t.FailNow()
	}
	if rep.DuringRecovery < 1 {
		t.Fatalf("campaign exercised no mid-recovery failure (runs=%d)", rep.Runs)
	}
	if rep.Exhaustion < 1 {
		t.Fatalf("campaign exercised no standby exhaustion (runs=%d)", rep.Runs)
	}
	if *campaignRounds >= numScenarios {
		if rep.Lossy < 1 {
			t.Fatalf("campaign exercised no omission faults (runs=%d)", rep.Runs)
		}
		if rep.Fenced < 1 {
			t.Fatalf("campaign fenced no healed partition (runs=%d)", rep.Runs)
		}
	}
	if rep.Queries == 0 {
		t.Fatalf("campaign answered no live queries during its rounds (runs=%d)", rep.Runs)
	}
	if *campaignRounds >= 2 {
		for _, mem := range []string{"centralized", "gossip"} {
			if rep.Memberships[mem] == 0 {
				t.Fatalf("campaign never ran the %s detector: %v", mem, rep.Memberships)
			}
		}
	}
	// The summary is a function of the seed, pinned for the default one so
	// a round drawn from anything but the seed fails here; how many live
	// reads a replica served depends on host timing, so it gets its own line.
	summary := fmt.Sprintf("%d runs, %d during-recovery, %d exhaustion, %d lossy, %d fenced, "+
		"%d live queries (digest %016x), memberships %v, 0 failures",
		rep.Runs, rep.DuringRecovery, rep.Exhaustion, rep.Lossy, rep.Fenced,
		rep.Queries, rep.QueryDigest, rep.Memberships)
	t.Logf("campaign: %s", summary)
	const want = "100 runs, 20 during-recovery, 20 exhaustion, 20 lossy, 20 fenced, " +
		"5218 live queries (digest 0b04ff85bebef591), memberships map[centralized:50 gossip:50], 0 failures"
	if *campaignSeed == 1 && *campaignRounds == 50 && summary != want {
		t.Errorf("campaign summary for the default seed is\n  %s\nwant\n  %s", summary, want)
	}
	t.Logf("campaign (host-timed): %d live queries served from replicas", rep.ReplicaReads)
}

// TestCampaignStrategyMatrix: one full cycle of scenarios x FT strategies,
// in both modes. Every crash scenario must have run under all four
// strategies, and every round converged bit-for-bit (tol only for
// vertex-cut migrations) — this is the four-strategy chaos matrix.
func TestCampaignStrategyMatrix(t *testing.T) {
	camp := Campaign{Seed: *campaignSeed, Rounds: numScenarios * len(campaignStrategies)}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Errorf("round %d (%s): %s\n  repro: %s", f.Round, f.Mode, f.Err, f.Repro)
	}
	if rep.Failed() {
		t.FailNow()
	}
	for _, kind := range campaignStrategies {
		if rep.Strategies[kind.String()] == 0 {
			t.Errorf("campaign never ran the %s strategy: %v", kind, rep.Strategies)
		}
	}
	t.Logf("strategy matrix: %v over %d runs", rep.Strategies, rep.Runs)
}

// TestReplay: a repro line replays a specific round deterministically.
func TestReplay(t *testing.T) {
	camp := Campaign{Seed: *campaignSeed}
	if err := camp.Replay("chaos seed=1 round=4 mode=vertex-cut sched=whatever"); err != nil {
		t.Fatalf("replay of a passing round failed: %v", err)
	}
	// Odd round: the mem=gossip token is informational — Replay re-derives
	// the detector from the round number, and unknown tokens are ignored.
	if err := camp.Replay("chaos seed=1 round=3 mode=edge-cut ft=rebirth mem=gossip sched=whatever"); err != nil {
		t.Fatalf("replay of a gossip-mode round failed: %v", err)
	}
	if err := camp.Replay("chaos seed=1"); !errors.Is(err, core.ErrInvalidSchedule) {
		t.Fatalf("partial repro: err = %v, want ErrInvalidSchedule", err)
	}
	if err := camp.Replay("chaos seed=1 round=0 mode=ring"); !errors.Is(err, core.ErrInvalidSchedule) {
		t.Fatalf("bad mode: err = %v, want ErrInvalidSchedule", err)
	}
}
