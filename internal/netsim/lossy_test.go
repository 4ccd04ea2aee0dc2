package netsim

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"imitator/internal/costmodel"
)

func newLossyNet(t *testing.T, n int, seed uint64) *Network {
	t.Helper()
	net := newNet(t, n)
	net.EnableOmission(seed)
	return net
}

func checkErr(t *testing.T, net *Network) {
	t.Helper()
	if err := net.Err(); err != nil {
		t.Fatalf("backend error leaked: %v", err)
	}
}

// sendRound pushes count frames 0->1 and finishes the round.
func sendRound(net *Network, count int) {
	for i := 0; i < count; i++ {
		net.Send(0, 1, KindSync, []byte{byte(i)})
	}
	net.FinishRound()
}

func TestLossyDropRetransmitsInOrder(t *testing.T) {
	net := newLossyNet(t, 2, 1)
	net.SetDropRate(0, 1, 0.5)
	const frames = 50
	sendRound(net, frames)
	msgs := net.Receive(1)
	if len(msgs) != frames {
		t.Fatalf("delivered %d frames, want %d", len(msgs), frames)
	}
	for i, m := range msgs {
		if len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: payload %v", i, m.Payload)
		}
	}
	st, _ := net.OmissionStats()
	if st.Retransmits == 0 {
		t.Fatal("50% drop over 50 frames produced no retransmits")
	}
	if st.RetransmitBytes == 0 || st.AckBytes == 0 || st.BackoffSeconds == 0 {
		t.Fatalf("retransmission cost not charged: %+v", st)
	}
	checkErr(t, net)
}

func TestLossyDuplicatesDeduplicated(t *testing.T) {
	net := newLossyNet(t, 2, 2)
	net.SetDupRate(0, 1, 1) // every frame arrives twice
	const frames = 20
	sendRound(net, frames)
	msgs := net.Receive(1)
	if len(msgs) != frames {
		t.Fatalf("delivered %d frames, want %d after dedup", len(msgs), frames)
	}
	st, _ := net.OmissionStats()
	if st.DuplicatesDelivered != frames || st.DuplicatesDropped != frames {
		t.Fatalf("dup accounting off: %+v", st)
	}
	checkErr(t, net)
}

func TestLossyReorderRestoredBySequence(t *testing.T) {
	net := newLossyNet(t, 2, 3)
	net.SetReorderRate(0, 1, 0.5)
	const frames = 40
	sendRound(net, frames)
	msgs := net.Receive(1)
	if len(msgs) != frames {
		t.Fatalf("delivered %d frames, want %d", len(msgs), frames)
	}
	for i, m := range msgs {
		if m.Payload[0] != byte(i) {
			t.Fatalf("frame %d delivered out of order after reorder recovery", i)
		}
	}
	st, _ := net.OmissionStats()
	if st.Reordered == 0 {
		t.Fatal("50% reorder over 40 frames displaced nothing")
	}
	checkErr(t, net)
}

// TestLossyDeterministicReplay: same seed, same traffic, bit-identical
// stats; a different seed draws different fates.
func TestLossyDeterministicReplay(t *testing.T) {
	run := func(seed uint64) OmissionStats {
		net := newLossyNet(t, 3, seed)
		net.SetDropRate(0, 1, 0.4)
		net.SetDupRate(1, 2, 0.4)
		net.SetReorderRate(2, 0, 0.4)
		for round := 0; round < 5; round++ {
			for i := 0; i < 10; i++ {
				net.Send(0, 1, KindSync, []byte{byte(i)})
				net.Send(1, 2, KindGather, []byte{byte(i)})
				net.Send(2, 0, KindSync, []byte{byte(i)})
			}
			net.FinishRound()
			net.Receive(0)
			net.Receive(1)
			net.Receive(2)
		}
		checkErr(t, net)
		st, _ := net.OmissionStats()
		return st
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if c := run(8); c == a {
		t.Fatalf("different seed replayed identical fates: %+v", a)
	}
}

// TestLossyFateStreamNeverReseeded: a link draws its fates from one stream
// for the whole run. Clearing and reinstalling its drop rate, or cutting and
// healing it, draws nothing and restarts nothing, so the fates of the lossy
// rounds match a run that only ever sent those rounds. Datagrams make each
// frame's fate visible: one draw each, delivered or gone for good.
func TestLossyFateStreamNeverReseeded(t *testing.T) {
	const frames, seed, p = 16, 12, 0.5
	// fates sends one round of datagrams 0->1 and reports which arrived.
	fates := func(net *Network) []bool {
		for i := 0; i < frames; i++ {
			net.Send(0, 1, KindControl, []byte{byte(i)})
		}
		net.FinishRound()
		got := make([]bool, frames)
		for _, m := range net.Receive(1) {
			got[m.Payload[0]] = true
		}
		return got
	}
	newNet := func() *Network {
		net := newLossyNet(t, 3, seed)
		net.SetDatagramKind(KindControl)
		net.SetDropRate(0, 1, p)
		return net
	}

	ref := newNet()
	var want [3][]bool
	for r := range want {
		want[r] = fates(ref)
	}
	if slices.Equal(want[0], want[1]) || slices.Equal(want[0], want[2]) {
		t.Fatalf("seed %d repeats a round's fates %v, so a re-seeded stream would not show", seed, want)
	}

	net := newNet()
	got := [3][]bool{fates(net)}
	net.SetDropRate(0, 1, 0)
	if lost := slices.Index(fates(net), false); lost >= 0 {
		t.Fatalf("frame %d lost on a link whose drop rate was cleared", lost)
	}
	net.SetDropRate(0, 1, p)
	got[1] = fates(net)
	net.Partition([]int{1})
	fates(net) // lost in the cut cable without a draw
	net.Heal([]int{1})
	got[2] = fates(net)
	for r := range got {
		if !slices.Equal(got[r], want[r]) {
			t.Errorf("lossy round %d: fates %v, want %v", r, got[r], want[r])
		}
	}
	checkErr(t, net)
}

// TestLossyDrainSemantics is the SetFailed/Drop satellite: with
// retransmission queues and in-flight duplicates pending, failing a node
// must not ghost-redeliver anything after revival, and no backend error
// may leak.
func TestLossyDrainSemantics(t *testing.T) {
	net := newLossyNet(t, 3, 4)
	net.SetDropRate(0, 1, 0.5)
	net.SetDupRate(2, 1, 1)

	// Queue traffic toward node 1 and from node 1, then fail it before
	// the round closes: its unsent queue must die with it, and frames
	// addressed to it must be discarded, not delivered to the next life.
	net.Send(0, 1, KindSync, []byte("a"))
	net.Send(2, 1, KindSync, []byte("b"))
	net.Send(1, 2, KindSync, []byte("c"))
	net.SetFailed(1, true)
	net.FinishRound()
	if msgs := net.Receive(2); len(msgs) != 0 {
		t.Fatalf("failed node's queued frames ghost-delivered: %d", len(msgs))
	}
	st, _ := net.OmissionStats()
	if st.DroppedDead == 0 {
		t.Fatalf("frames to the dead node not accounted: %+v", st)
	}

	// Revive the slot (rebirth): drains run, a new epoch is stamped.
	net.SetFailed(1, false)
	net.SetEpoch(1, 2)
	if msgs := net.Receive(1); len(msgs) != 0 {
		t.Fatalf("stale frames survived revival drain: %d", len(msgs))
	}

	// Fresh traffic flows on reset sequence numbers in both directions.
	net.Send(0, 1, KindSync, []byte("x"))
	net.Send(1, 2, KindSync, []byte("y"))
	net.FinishRound()
	if msgs := net.Receive(1); len(msgs) != 1 || string(msgs[0].Payload) != "x" {
		t.Fatalf("revived node receive = %v", msgs)
	}
	if msgs := net.Receive(2); len(msgs) != 1 || string(msgs[0].Payload) != "y" {
		t.Fatalf("revived node send = %v", msgs)
	}
	checkErr(t, net)
}

// TestLossyNetworkDropDiscardsRound covers Network.Drop (rollback): an
// uncollected round disappears without corrupting later sequence state.
func TestLossyNetworkDropDiscardsRound(t *testing.T) {
	net := newLossyNet(t, 2, 5)
	net.SetDupRate(0, 1, 1) // in-flight duplicates pending at Drop time
	sendRound(net, 3)
	net.Drop(1) // rollback discards the arrived-but-unprocessed frames
	if msgs := net.Receive(1); len(msgs) != 0 {
		t.Fatalf("dropped round still delivered %d frames", len(msgs))
	}
	// Drop consumed those sequence numbers, so no fresh incarnation
	// handshake is required: the next round's frames are new sequences
	// after the dropped ones and must deliver with no hole to report.
	sendRound(net, 2)
	if msgs := net.Receive(1); len(msgs) != 2 {
		t.Fatalf("post-drop round delivered %d frames, want 2", len(msgs))
	}
	checkErr(t, net)
	net.SetEpoch(1, 2)
	net.SetEpoch(1, 2) // idempotent re-stamp must not corrupt state
	sendRound(net, 2)
	if msgs := net.Receive(1); len(msgs) != 2 {
		t.Fatalf("post-epoch round delivered %d frames, want 2", len(msgs))
	}
	checkErr(t, net)
}

// TestLossyRetransmitLimitReachesErr: a link that loses every frame gives
// up after maxRetxAttempts tries, leaves the frame undelivered and reports
// it through Err, which keeps the transmit loop's first such error.
func TestLossyRetransmitLimitReachesErr(t *testing.T) {
	net := newLossyNet(t, 3, 10)
	net.SetDropRate(0, 1, 1)
	net.SetDropRate(2, 1, 1)
	net.Send(0, 1, KindSync, []byte("lost"))
	net.Send(0, 2, KindSync, []byte("fine"))
	net.Send(2, 1, KindSync, []byte("lost too"))
	net.FinishRound()
	if msgs := net.Receive(1); len(msgs) != 0 {
		t.Fatalf("a frame lost %d times was delivered: %v", maxRetxAttempts, msgs)
	}
	if msgs := net.Receive(2); len(msgs) != 1 || string(msgs[0].Payload) != "fine" {
		t.Fatalf("healthy link delivered %v", msgs)
	}
	err := net.Err()
	if err == nil || !strings.Contains(err.Error(), "link 0->1 lost a frame") {
		t.Fatalf("Err() = %v, want the 0->1 retransmission limit", err)
	}
	if st, _ := net.OmissionStats(); st.Retransmits != 2*(maxRetxAttempts-1) {
		t.Fatalf("retransmits = %d, want %d", st.Retransmits, 2*(maxRetxAttempts-1))
	}
}

// TestLossyPartitionParkAndFence: frames crossing a cut park in the
// cable; after the victim's slot is rebuilt under a new epoch and the
// partition heals, the parked frames are counted and dropped, never
// delivered.
func TestLossyPartitionParkAndFence(t *testing.T) {
	net := newLossyNet(t, 3, 6)
	net.Partition([]int{1})

	net.Send(1, 0, KindSync, []byte("stale"))
	net.Send(0, 1, KindSync, []byte("lost"))
	net.Send(0, 2, KindSync, []byte("fine"))
	net.FinishRound()
	if msgs := net.Receive(0); len(msgs) != 0 {
		t.Fatalf("cut link delivered %d frames", len(msgs))
	}
	if msgs := net.Receive(2); len(msgs) != 1 {
		t.Fatalf("uncut link delivered %d frames, want 1", len(msgs))
	}
	st, _ := net.OmissionStats()
	if st.Parked != 2 {
		t.Fatalf("parked %d frames, want 2", st.Parked)
	}

	// The victim is confirmed failed and its slot rebuilt: new epoch.
	net.SetFailed(1, true)
	net.SetFailed(1, false)
	net.SetEpoch(1, 2)

	// Heal: parked frames release and face the fence. The old
	// incarnation's frame to node 0 carries epoch 1 — fenced; the frame
	// addressed to the old incarnation of node 1 is fenced too.
	net.Heal([]int{1})
	net.FinishRound()
	if msgs := net.Receive(0); len(msgs) != 0 {
		t.Fatalf("stale-epoch frame delivered to node 0: %v", msgs)
	}
	if msgs := net.Receive(1); len(msgs) != 0 {
		t.Fatalf("stale-epoch frame delivered to revived node 1: %v", msgs)
	}
	st, _ = net.OmissionStats()
	if st.Released != 2 {
		t.Fatalf("released %d frames, want 2", st.Released)
	}
	if st.Fenced != 2 {
		t.Fatalf("fenced %d frames, want 2", st.Fenced)
	}
	checkErr(t, net)
}

// TestLossyZeroOverheadWhenDisabled: without EnableOmission the network
// must not charge a single extra byte, or every simulated figure moves.
func TestLossyZeroOverheadWhenDisabled(t *testing.T) {
	plain := newNet(t, 2)
	plain.Send(0, 1, KindSync, []byte("abc"))
	costs, fabric := plain.FinishRound()
	if _, ok := plain.OmissionStats(); ok {
		t.Fatal("omission stats present without EnableOmission")
	}
	if plain.Epoch(0) != 1 {
		t.Fatal("default epoch must be 1")
	}

	lossy := newLossyNet(t, 2, 9) // installed but no faults set
	lossy.Send(0, 1, KindSync, []byte("abc"))
	lossyCosts, lossyFabric := lossy.FinishRound()
	// The envelope is honest overhead of running the reliable protocol;
	// with the layer merely installed the only delta is those 12 bytes.
	if lossyFabric <= fabric || lossyCosts[0] <= costs[0] {
		t.Fatal("installed layer should charge envelope bytes")
	}
	if msgs := lossy.Receive(1); len(msgs) != 1 || string(msgs[0].Payload) != "abc" {
		t.Fatalf("fault-free lossy delivery = %v", msgs)
	}
	checkErr(t, lossy)
}

func init() {
	// Guard against accidental params drift in these tests.
	if costmodel.Default().NetLatency <= 0 {
		panic("netsim tests assume positive latency")
	}
}

// retained lists every payload still referenced from the backends' queues,
// looking past each queue's length to the end of its backing array.
func retained(net *Network) [][]byte {
	var all [][]byte
	mem := net.backend
	if net.omission != nil {
		mem = net.omission.inner
		for _, q := range net.omission.out {
			for _, fr := range q[:cap(q)] {
				all = append(all, fr.m.Payload)
			}
		}
	}
	for i := range mem.(*memBackend).boxes {
		box := &mem.(*memBackend).boxes[i]
		for _, q := range [][]Message{box.in, box.out} {
			for _, m := range q[:cap(q)] {
				all = append(all, m.Payload)
			}
		}
	}
	return all
}

// TestDeliveredPayloadsAreReleased: Receive hands payload ownership to the
// caller, so once the receiver has collected its next round no queue may still
// reference an earlier round's payloads — a recovery payload of many MB would
// otherwise stay pinned for as long as a later round happens to be shorter.
func TestDeliveredPayloadsAreReleased(t *testing.T) {
	for _, omission := range []bool{false, true} {
		net := newNet(t, 3)
		if omission {
			net.EnableOmission(9)
			net.SetDupRate(2, 1, 1)
		}
		for i := 0; i < 3; i++ {
			net.Send(0, 1, KindRecovery, []byte("stale payload"))
			net.Send(2, 1, KindSync, []byte("stale payload"))
		}
		net.FinishRound()
		if got := len(net.Receive(1)); got != 6 {
			t.Fatalf("omission=%v: first round delivered %d messages, want 6", omission, got)
		}
		net.Send(0, 1, KindSync, []byte("live"))
		net.FinishRound()
		if got := len(net.Receive(1)); got != 1 {
			t.Fatalf("omission=%v: second round delivered %d messages, want 1", omission, got)
		}
		for _, p := range retained(net) {
			if bytes.Contains(p, []byte("stale")) {
				t.Fatalf("omission=%v: a delivered payload is still referenced after the next round: %q", omission, p)
			}
		}
		checkErr(t, net)
	}
}
