package netsim

import (
	"sync"
	"testing"

	"imitator/internal/costmodel"
)

func newNet(t *testing.T, n int) *Network {
	t.Helper()
	net, err := New(n, costmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSendReceive(t *testing.T) {
	net := newNet(t, 3)
	net.Send(0, 2, KindSync, []byte("alpha"))
	net.Send(1, 2, KindGather, []byte("beta"))
	net.FinishRound()
	msgs := net.Receive(2)
	if len(msgs) != 2 {
		t.Fatalf("got %d messages, want 2", len(msgs))
	}
	// Deterministic sender order.
	if msgs[0].From != 0 || string(msgs[0].Payload) != "alpha" || msgs[0].Kind != KindSync {
		t.Errorf("msg0 = %+v", msgs[0])
	}
	if msgs[1].From != 1 || string(msgs[1].Payload) != "beta" {
		t.Errorf("msg1 = %+v", msgs[1])
	}
	if again := net.Receive(2); len(again) != 0 {
		t.Error("Receive did not drain")
	}
}

func TestFailedNodeDropsTraffic(t *testing.T) {
	net := newNet(t, 2)
	net.SetFailed(1, true)
	net.Send(0, 1, KindSync, []byte("x")) // to failed: dropped
	net.Send(1, 0, KindSync, []byte("y")) // from failed: dropped
	net.FinishRound()
	if len(net.Receive(0)) != 0 || len(net.Receive(1)) != 0 {
		t.Error("failed node traffic not dropped")
	}
	net.SetFailed(1, false)
	net.Send(0, 1, KindSync, []byte("z"))
	net.FinishRound()
	if len(net.Receive(1)) != 1 {
		t.Error("revived node should receive")
	}
}

func TestRoundCostIsMaxOfInOut(t *testing.T) {
	p := costmodel.Default()
	p.NetLatency = 0
	p.NetBandwidth = 125e6
	net, err := New(3, p)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 125_000_000-headerBytes) // exactly 1 second egress
	net.Send(0, 1, KindSync, big)
	costs, _ := net.FinishRound()
	if costs[0] < 0.99 || costs[0] > 1.01 {
		t.Errorf("sender cost = %v, want ~1s", costs[0])
	}
	if costs[1] < 0.99 || costs[1] > 1.01 {
		t.Errorf("receiver cost = %v, want ~1s", costs[1])
	}
	if costs[2] != 0 {
		t.Errorf("idle node cost = %v, want 0", costs[2])
	}
}

func TestRoundCostsResetBetweenRounds(t *testing.T) {
	net := newNet(t, 2)
	net.Send(0, 1, KindSync, make([]byte, 1000))
	net.FinishRound()
	net.Receive(1)
	costs, _ := net.FinishRound()
	if costs[0] != 0 || costs[1] != 0 {
		t.Errorf("second round costs = %v, want zeros", costs)
	}
}

func TestLatencyAppliedOnlyWhenTrafficFlows(t *testing.T) {
	net := newNet(t, 2)
	net.Send(0, 1, KindSync, []byte("a"))
	costs, _ := net.FinishRound()
	if costs[0] < costmodel.Default().NetLatency {
		t.Error("latency missing from active node")
	}
	if costs[1] < costmodel.Default().NetLatency {
		t.Error("latency missing from receiver")
	}
}

func TestFabricCost(t *testing.T) {
	p := costmodel.Default()
	p.NetLatency = 0
	p.NetBandwidth = 1e6
	net, err := New(4, p)
	if err != nil {
		t.Fatal(err)
	}
	// All four nodes exchange 1 KB with their neighbor: per-node volume is
	// ~1 KB, total ~4 KB over 4 active nodes => fabric ~ per-node cost.
	for i := 0; i < 4; i++ {
		net.Send(i, (i+1)%4, KindSync, make([]byte, 1000-headerBytes))
	}
	costs, fabric := net.FinishRound()
	if fabric <= 0 {
		t.Fatal("fabric cost missing")
	}
	perNode := costs[0]
	if fabric < 1.8*perNode || fabric > 2.2*perNode {
		t.Errorf("fabric %v should be ~2x per-node cost %v for balanced traffic", fabric, perNode)
	}
	// Extra traffic grows the fabric term even when the max node is fixed.
	for i := 0; i < 4; i++ {
		net.Send(i, (i+1)%4, KindSync, make([]byte, 1000-headerBytes))
	}
	net.Send(0, 1, KindSync, make([]byte, 500))
	_, fabric2 := net.FinishRound()
	if fabric2 <= fabric {
		t.Errorf("fabric did not grow with extra traffic: %v -> %v", fabric, fabric2)
	}
}

func TestDrop(t *testing.T) {
	net := newNet(t, 2)
	net.Send(0, 1, KindSync, []byte("a"))
	net.Drop(1)
	if len(net.Receive(1)) != 0 {
		t.Error("Drop left messages behind")
	}
}

func TestTotals(t *testing.T) {
	net := newNet(t, 2)
	net.Send(0, 1, KindSync, make([]byte, 100))
	net.Send(0, 1, KindSync, make([]byte, 50))
	net.FinishRound()
	want := int64(100+headerBytes) + int64(50+headerBytes)
	if net.TotalOutBytes(0) != want {
		t.Errorf("TotalOutBytes(0) = %d, want %d", net.TotalOutBytes(0), want)
	}
	if net.TotalBytes() != want {
		t.Errorf("TotalBytes = %d, want %d", net.TotalBytes(), want)
	}
}

func TestConcurrentSenders(t *testing.T) {
	net := newNet(t, 8)
	var wg sync.WaitGroup
	for from := 0; from < 8; from++ {
		from := from
		wg.Add(1)
		go func() {
			defer wg.Done()
			for to := 0; to < 8; to++ {
				for k := 0; k < 50; k++ {
					net.Send(from, to, KindGather, []byte{byte(from), byte(to)})
				}
			}
		}()
	}
	wg.Wait()
	net.FinishRound()
	for to := 0; to < 8; to++ {
		msgs := net.Receive(to)
		if len(msgs) != 8*50 {
			t.Fatalf("node %d received %d, want 400", to, len(msgs))
		}
		// Per-sender batches stay ordered and grouped.
		last := -1
		for _, m := range msgs {
			if m.From < last {
				t.Fatal("messages not in sender order")
			}
			last = m.From
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, costmodel.Default()); err == nil {
		t.Error("expected error for 0 nodes")
	}
	bad := costmodel.Default()
	bad.DiskBandwidth = -1
	if _, err := New(2, bad); err == nil {
		t.Error("expected error for bad params")
	}
}

func TestMemDrainFrom(t *testing.T) {
	net := newNet(t, 3)
	net.Send(0, 1, KindSync, []byte("a"))
	net.Send(2, 1, KindSync, []byte("b"))
	net.FinishRound()
	net.SetFailed(0, true)
	net.SetFailed(0, false) // revival drains node 0's stale sends
	msgs := net.Receive(1)
	if len(msgs) != 1 || msgs[0].From != 2 {
		t.Fatalf("msgs = %+v", msgs)
	}
}
