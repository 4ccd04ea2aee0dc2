package gossip

import (
	"testing"
)

func newDetector(tb testing.TB, n int, p Params) *Detector {
	tb.Helper()
	d, err := New(n, p)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func checkClean(t *testing.T, d *Detector) {
	t.Helper()
	if err := d.Err(); err != nil {
		t.Fatalf("detector error: %v", err)
	}
}

// runUntilConfirmed drives periods until every id in want has been
// confirmed by some view, failing the test past maxPeriods.
func runUntilConfirmed(t *testing.T, d *Detector, want []int, maxPeriods int) map[int]int {
	t.Helper()
	confirmedAt := make(map[int]int)
	for p := 0; p < maxPeriods; p++ {
		d.RunPeriod()
		for _, id := range d.TakeConfirms() {
			if _, ok := confirmedAt[id]; !ok {
				confirmedAt[id] = d.Period()
			}
		}
		done := true
		for _, id := range want {
			if _, ok := confirmedAt[id]; !ok {
				done = false
			}
		}
		if done {
			return confirmedAt
		}
	}
	t.Fatalf("not all of %v confirmed within %d periods (got %v)", want, maxPeriods, confirmedAt)
	return nil
}

func TestDetectSingleFailure(t *testing.T) {
	d := newDetector(t, 8, Params{Seed: 1})
	defer d.Close()
	d.RunPeriod()
	d.RunPeriod()
	d.TakeConfirms()
	d.Fail(3)
	failPeriod := d.Period()
	at := runUntilConfirmed(t, d, []int{3}, 40)
	// Lower bound: a confirm can only follow a full suspicion timeout.
	if lat := at[3] - failPeriod; lat < d.SuspicionPeriods() {
		t.Fatalf("confirmed after %d periods, below the suspicion timeout %d",
			lat, d.SuspicionPeriods())
	}
	if st := d.Stats(); st.FalseSuspicions != 0 {
		t.Fatalf("lossless run originated %d false suspicions", st.FalseSuspicions)
	}
	// Every surviving view must agree once dissemination catches up.
	for p := 0; p < 10; p++ {
		d.RunPeriod()
	}
	for v := 0; v < 8; v++ {
		if v == 3 {
			continue
		}
		if s := d.StatusAt(v, 3); s != UpdConfirm {
			t.Fatalf("view %d has node 3 in state %d, want confirmed", v, s)
		}
	}
	checkClean(t, d)
}

func TestDetectUnderDrop(t *testing.T) {
	d := newDetector(t, 16, Params{Seed: 2})
	defer d.Close()
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i != j {
				d.Net().SetDropRate(i, j, 0.2)
			}
		}
	}
	d.Fail(5)
	d.Fail(11)
	runUntilConfirmed(t, d, []int{5, 11}, 80)
	checkClean(t, d)
}

func TestRefutationClearsFalseSuspicion(t *testing.T) {
	d := newDetector(t, 6, Params{Seed: 3})
	defer d.Close()
	if got := d.SuspicionPeriods(); got != 4 {
		t.Fatalf("suspicion timeout at 6 members = %d, want 4", got)
	}
	// Isolate a live node for two periods: probes into the partition are
	// lost datagrams, so someone suspects it.
	d.Net().Partition([]int{4})
	d.RunPeriod()
	d.RunPeriod()
	suspected := false
	for v := 0; v < 6; v++ {
		if v != 4 && d.StatusAt(v, 4) == UpdSuspect {
			suspected = true
		}
	}
	if !suspected {
		t.Fatal("two isolated periods raised no suspicion of node 4")
	}
	if st := d.Stats(); st.FalseSuspicions == 0 {
		t.Fatal("suspicion of a live node not counted as false")
	}
	// Heal well inside the suspicion timeout: node 4 must refute and
	// never be confirmed dead.
	d.Net().Heal([]int{4})
	for p := 0; p < 12; p++ {
		d.RunPeriod()
		for _, id := range d.TakeConfirms() {
			if id == 4 {
				t.Fatalf("live node 4 confirmed dead at period %d despite heal", d.Period())
			}
		}
	}
	for v := 0; v < 6; v++ {
		if s := d.StatusAt(v, 4); s != UpdAlive {
			t.Fatalf("view %d still has node 4 in state %d after refutation", v, s)
		}
	}
	checkClean(t, d)
}

func TestReviveRejoinsAndRedetects(t *testing.T) {
	d := newDetector(t, 8, Params{Seed: 4})
	defer d.Close()
	d.Fail(2)
	runUntilConfirmed(t, d, []int{2}, 40)
	d.Revive(2)
	for p := 0; p < 8; p++ {
		d.RunPeriod()
	}
	if got := d.TakeConfirms(); len(got) != 0 {
		t.Fatalf("revived node re-confirmed dead: %v", got)
	}
	for v := 0; v < 8; v++ {
		if s := d.StatusAt(v, 2); s != UpdAlive {
			t.Fatalf("view %d has revived node 2 in state %d", v, s)
		}
	}
	// The second life must be detectable anew.
	d.Fail(2)
	runUntilConfirmed(t, d, []int{2}, 40)
	checkClean(t, d)
}

func TestForceConfirm(t *testing.T) {
	d := newDetector(t, 4, Params{Seed: 5})
	defer d.Close()
	d.Fail(1)
	d.ForceConfirm(1)
	confirmed := false
	for _, id := range d.TakeConfirms() {
		if id == 1 {
			confirmed = true
		}
	}
	if !confirmed {
		t.Fatal("ForceConfirm did not surface a confirm transition")
	}
	for v := 0; v < 4; v++ {
		if v != 1 && d.StatusAt(v, 1) != UpdConfirm {
			t.Fatalf("view %d missed the forced confirm", v)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, fnv) {
		d, err := New(24, Params{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for i := 0; i < 24; i++ {
			for j := 0; j < 24; j++ {
				if i != j {
					d.Net().SetDropRate(i, j, 0.15)
					d.Net().SetDupRate(i, j, 0.05)
				}
			}
		}
		for p := 0; p < 30; p++ {
			if p == 5 {
				d.Fail(7)
			}
			if p == 12 {
				d.Net().Partition([]int{1, 2})
			}
			if p == 18 {
				d.Net().Heal([]int{1, 2})
			}
			if p == 22 {
				d.Revive(7)
			}
			d.RunPeriod()
		}
		checkClean(t, d)
		h := fnvOffset
		foldState(&h, d)
		return d.Stats(), h
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs:\n%+v\n%+v", s1, s2)
	}
	if f1 != f2 {
		t.Fatalf("membership views diverged across identical runs")
	}
	if s1.Messages == 0 || s1.Bytes == 0 {
		t.Fatalf("run sent no traffic: %+v", s1)
	}
}

func TestLargeClusterDetects(t *testing.T) {
	const n = 1024
	d := newDetector(t, n, Params{Seed: 6})
	defer d.Close()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Net().SetDropRate(i, j, 0.05)
			}
		}
	}
	d.Fail(17)
	d.Fail(170)
	d.Fail(1023)
	at := runUntilConfirmed(t, d, []int{17, 170, 1023}, 120)
	for id, p := range at {
		t.Logf("node %d confirmed at period %d", id, p)
	}
	checkClean(t, d)
}
