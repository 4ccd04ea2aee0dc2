package coord

import "testing"

func TestCoordinatorSuspicionLifecycle(t *testing.T) {
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Suspect(1) {
		t.Fatal("first suspicion of an alive node must report true")
	}
	if c.Suspect(1) {
		t.Fatal("repeated suspicion must report false")
	}
	if !c.Suspected(1) || c.Suspected(0) {
		t.Fatal("Suspected does not reflect state")
	}
	// Suspicion is advisory: the node is still a member.
	if !c.Alive(1) {
		t.Fatal("suspected node must stay alive until confirmed")
	}
	// Confirmation clears suspicion.
	c.MarkFailed(1)
	if c.Suspected(1) {
		t.Fatal("MarkFailed must clear suspicion")
	}
	if c.Suspect(1) {
		t.Fatal("a failed node cannot be suspected")
	}
}

func TestCoordinatorEpochBumpsOnJoin(t *testing.T) {
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if e := c.Epoch(n); e != 1 {
			t.Fatalf("node %d starts at epoch %d, want 1", n, e)
		}
	}
	c.Suspect(2)
	c.MarkFailed(2)
	c.Join(2)
	if e := c.Epoch(2); e != 2 {
		t.Fatalf("epoch after first Join = %d, want 2", e)
	}
	if c.Suspected(2) {
		t.Fatal("Join must clear suspicion")
	}
	if !c.Alive(2) {
		t.Fatal("Join must restore membership")
	}
	c.MarkFailed(2)
	c.Join(2)
	if e := c.Epoch(2); e != 3 {
		t.Fatalf("epoch after second Join = %d, want 3", e)
	}
	// Untouched slots never move.
	if c.Epoch(0) != 1 || c.Epoch(1) != 1 {
		t.Fatal("Join bumped an unrelated slot's epoch")
	}
}
