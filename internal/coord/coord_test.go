package coord

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierReleasesWhenAllArrive(t *testing.T) {
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var released int32
	for n := 0; n < 4; n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.EnterBarrier(n)
			if s.IsFail() {
				t.Errorf("unexpected failure state: %+v", s)
			}
			atomic.AddInt32(&released, 1)
		}()
	}
	wg.Wait()
	if released != 4 {
		t.Fatalf("released %d, want 4", released)
	}
}

func TestBarrierGenerationsAdvance(t *testing.T) {
	c, _ := New(2)
	var wg sync.WaitGroup
	gens := make([][]int, 2)
	for n := 0; n < 2; n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s := c.EnterBarrier(n)
				gens[n] = append(gens[n], s.Generation)
			}
		}()
	}
	wg.Wait()
	for n := 0; n < 2; n++ {
		for i, g := range gens[n] {
			if g != i {
				t.Errorf("node %d barrier %d saw generation %d", n, i, g)
			}
		}
	}
}

func TestFailureAnnouncedAtBarrier(t *testing.T) {
	c, _ := New(3)
	var wg sync.WaitGroup
	states := make([]BarrierState, 3)
	// Node 2 dies; 0 and 1 enter the barrier.
	c.MarkFailed(2)
	for n := 0; n < 2; n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[n] = c.EnterBarrier(n)
		}()
	}
	wg.Wait()
	for n := 0; n < 2; n++ {
		if !states[n].IsFail() || len(states[n].Failed) != 1 || states[n].Failed[0] != 2 {
			t.Errorf("node %d state = %+v, want failure of node 2", n, states[n])
		}
	}
}

func TestFailureWhileWaitingReleasesBarrier(t *testing.T) {
	c, _ := New(2)
	got := make(chan BarrierState, 1)
	go func() { got <- c.EnterBarrier(0) }()
	// Give node 0 time to block, then kill node 1 (never arrives).
	time.Sleep(10 * time.Millisecond)
	c.MarkFailed(1)
	select {
	case s := <-got:
		if !s.IsFail() || s.Failed[0] != 1 {
			t.Errorf("state = %+v", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("barrier did not release after failure")
	}
}

func TestFailureClearsAfterOneBarrier(t *testing.T) {
	c, _ := New(2)
	c.MarkFailed(1)
	s := c.EnterBarrier(0) // releases alone: node 1 dead
	if !s.IsFail() {
		t.Fatal("first barrier should announce failure")
	}
	s = c.EnterBarrier(0)
	if s.IsFail() {
		t.Errorf("second barrier should be clean, got %+v", s)
	}
}

func TestJoinNewbie(t *testing.T) {
	c, _ := New(2)
	c.MarkFailed(1)
	c.EnterBarrier(0) // consume failure
	// Newbie joins as node 2; both must now arrive for release.
	c.Join(2)
	var wg sync.WaitGroup
	for _, n := range []int{0, 2} {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.EnterBarrier(n)
			if s.IsFail() {
				t.Errorf("unexpected failure: %+v", s)
			}
		}()
	}
	wg.Wait()
	for n, want := range []bool{true, false, true} {
		if c.Alive(n) != want {
			t.Errorf("Alive(%d) = %v, want %v", n, !want, want)
		}
	}
}

// TestLeaveAnnouncesNothing: a newbie that leaves stops being a member and
// holding up barriers, but no barrier reports it failed and its epoch stays.
func TestLeaveAnnouncesNothing(t *testing.T) {
	c, _ := New(2)
	c.MarkFailed(1)
	c.EnterBarrier(0) // consume failure
	c.Join(1)
	c.Leave(1)
	if c.Alive(1) {
		t.Error("a node that left is still a member")
	}
	if s := c.EnterBarrier(0); s.IsFail() {
		t.Errorf("barrier after Leave announced %v", s.Failed)
	}
	if e := c.Epoch(1); e != 2 {
		t.Errorf("Epoch(1) = %d after Join and Leave, want 2", e)
	}
}

func TestMarkFailedIdempotent(t *testing.T) {
	c, _ := New(2)
	c.MarkFailed(1)
	c.MarkFailed(1)
	s := c.EnterBarrier(0)
	if len(s.Failed) != 1 {
		t.Errorf("Failed = %v, want one entry", s.Failed)
	}
}

func TestAlive(t *testing.T) {
	c, _ := New(2)
	if !c.Alive(0) || !c.Alive(1) {
		t.Error("initial nodes should be alive")
	}
	c.MarkFailed(0)
	if c.Alive(0) {
		t.Error("failed node reported alive")
	}
}

func TestKV(t *testing.T) {
	c, _ := New(1)
	if _, ok := c.Get("iter"); ok {
		t.Error("unset key should miss")
	}
	c.Set("iter", 7)
	if v, ok := c.Get("iter"); !ok || v != 7 {
		t.Errorf("Get = %d, %v", v, ok)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("expected error for zero nodes")
	}
}

// TestReleaseMatchesEnterBarrier runs the same rounds twice — once with one
// goroutine per alive node in EnterBarrier, once with a single Release —
// and requires the same generation and ascending Failed list every round.
func TestReleaseMatchesEnterBarrier(t *testing.T) {
	const numNodes = 5
	// Before each round, fail is marked failed in that order, then join
	// rejoins (a rebirth newbie, which must then arrive too).
	rounds := []struct{ fail, join []int }{
		{}, {fail: []int{3}}, {}, {fail: []int{4, 1}, join: []int{3}}, {}, {fail: []int{2, 0}}, {},
	}
	run := func(pass func(c *Coordinator) BarrierState) []BarrierState {
		c, _ := New(numNodes)
		var states []BarrierState
		for _, r := range rounds {
			for _, n := range r.fail {
				c.MarkFailed(n)
			}
			for _, n := range r.join {
				c.Join(n)
			}
			states = append(states, pass(c))
		}
		return states
	}
	entered := run(func(c *Coordinator) BarrierState {
		var wg sync.WaitGroup
		states := make([]BarrierState, numNodes)
		var alive []int
		for n := 0; n < numNodes; n++ {
			if c.Alive(n) {
				alive = append(alive, n)
			}
		}
		for _, n := range alive {
			wg.Add(1)
			go func() {
				defer wg.Done()
				states[n] = c.EnterBarrier(n)
			}()
		}
		wg.Wait()
		for _, n := range alive[1:] {
			if !reflect.DeepEqual(states[n], states[alive[0]]) {
				t.Fatalf("nodes %d and %d left one barrier with %+v and %+v", alive[0], n, states[alive[0]], states[n])
			}
		}
		return states[alive[0]]
	})
	released := run((*Coordinator).Release)
	if !reflect.DeepEqual(released, entered) {
		t.Fatalf("Release states %+v, EnterBarrier states %+v", released, entered)
	}
	for r, s := range released {
		if s.Generation != r || !sort.IntsAreSorted(s.Failed) {
			t.Errorf("round %d: state %+v, want generation %d and ascending Failed", r, s, r)
		}
	}
	if got := released[3].Failed; !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("round 3 Failed = %v, want [1 4]", got)
	}
}
