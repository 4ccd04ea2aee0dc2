package netsim

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"imitator/internal/costmodel"
	"imitator/internal/rng"
)

// The backends used to keep one queue per directed link and find a round's
// traffic by walking all n² of them. Those dense walks live on here as the
// reference: denseMemBackend is the old in-memory backend verbatim, and
// denseRounds runs the omission layer's old per-sender loop — every
// receiver in ascending order, flush the links that hold frames — over a
// dense table rebuilt from the sender's queue. TestSparseRoundsMatchDense
// drives a network on the reference and one on the real backends through the
// same seeded schedule and demands identical observable behaviour.

type denseMemBackend struct {
	boxes [][][]Message // boxes[to][from]
	out   [][]Message   // per-receiver Collect scratch
}

func newDenseMemBackend(numNodes int) *denseMemBackend {
	boxes := make([][][]Message, numNodes)
	for to := range boxes {
		boxes[to] = make([][]Message, numNodes)
	}
	return &denseMemBackend{boxes: boxes, out: make([][]Message, numNodes)}
}

func (b *denseMemBackend) Send(to int, m Message) {
	b.boxes[to][m.From] = append(b.boxes[to][m.From], m)
}

func (b *denseMemBackend) EndRound(int, []bool) {}

func (b *denseMemBackend) Collect(to int) []Message {
	out := b.out[to][:0]
	for from := range b.boxes[to] {
		out = append(out, b.boxes[to][from]...)
		b.boxes[to][from] = b.boxes[to][from][:0]
	}
	b.out[to] = out
	return out
}

func (b *denseMemBackend) Drain(to int) {
	for from := range b.boxes[to] {
		b.boxes[to][from] = b.boxes[to][from][:0]
	}
}

func (b *denseMemBackend) DrainFrom(from int) {
	for to := range b.boxes {
		b.boxes[to][from] = b.boxes[to][from][:0]
	}
}

// denseRounds is a lossyBackend whose EndRound is the old dense loop.
type denseRounds struct{ *lossyBackend }

func (d denseRounds) EndRound(from int, failed []bool) {
	b := d.lossyBackend
	links := make([][]lossyFrame, b.n) // the sender's row of the old out[from*n+to]
	for _, fr := range b.out[from] {
		links[fr.to] = append(links[fr.to], fr)
	}
	for to := 0; to < b.n; to++ {
		if len(links[to]) > 0 {
			b.flushLink(from, to, !failed[to], links[to])
		}
	}
	b.out[from] = b.out[from][:0]
	b.inner.EndRound(from, failed)
}

// diffNets builds the pair under test: the real backends and the dense
// reference, with the omission layer on both or on neither.
func diffNets(t *testing.T, n int, seed uint64, omission bool) (sparse, dense *Network) {
	t.Helper()
	sparse, err := New(n, costmodel.Default())
	if err != nil {
		t.Fatal(err)
	}
	dense, err = NewWithBackend(n, costmodel.Default(), newDenseMemBackend(n))
	if err != nil {
		t.Fatal(err)
	}
	if omission {
		for _, net := range []*Network{sparse, dense} {
			net.EnableOmission(seed)
			net.SetDatagramKind(KindControl)
		}
		dense.backend = denseRounds{dense.omission}
	}
	return sparse, dense
}

// send is one scheduled Send.
type send struct {
	to      int
	kind    Kind
	payload []byte
}

// scheduleSends draws every sender's sends for one phase: reliable and
// datagram kinds, self-sends included.
func scheduleSends(src *rng.Source, n, round, phase int) [][]send {
	plan := make([][]send, n)
	kinds := []Kind{KindSync, KindControl, KindRecovery}
	for from := range plan {
		if src.Intn(3) == 0 {
			continue // silent this phase, so idle senders and receivers occur
		}
		for i, count := 0, src.Intn(5); i < count; i++ {
			to := src.Intn(n)
			if src.Intn(4) == 0 {
				to = (from + 1 + src.Intn(2)) % n // repeat a neighbour: several frames on one link
			}
			plan[from] = append(plan[from], send{
				to:      to,
				kind:    kinds[src.Intn(len(kinds))],
				payload: fmt.Appendf(nil, "r%d.%d %d->%d #%d", round, phase, from, to, i),
			})
		}
	}
	return plan
}

// runSends executes a phase with one goroutine per sender, the engine's shape.
func runSends(net *Network, plan [][]send) {
	var wg sync.WaitGroup
	for from, sends := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range sends {
				net.Send(from, s.to, s.kind, s.payload)
			}
		}()
	}
	wg.Wait()
}

// receiveAll collects every node's round concurrently and renders it.
func receiveAll(net *Network) []string {
	got := make([]string, net.NumNodes())
	var wg sync.WaitGroup
	for to := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for _, m := range net.Receive(to) {
				fmt.Fprintf(&buf, "%d/%d:%s|", m.From, m.Kind, m.Payload)
			}
			got[to] = buf.String()
		}()
	}
	wg.Wait()
	return got
}

func TestSparseRoundsMatchDense(t *testing.T) {
	for _, n := range []int{3, 64, 65, 130} {
		for _, omission := range []bool{false, true} {
			t.Run(fmt.Sprintf("n%d/omission=%v", n, omission), func(t *testing.T) {
				diffSchedule(t, n, omission)
			})
		}
	}
}

func diffSchedule(t *testing.T, n int, omission bool) {
	const rounds = 80
	seed := uint64(1000*n) + 7
	sparse, dense := diffNets(t, n, seed, omission)
	both := func(op func(net *Network)) {
		op(sparse)
		op(dense)
	}
	src := rng.New(seed)
	epochs := make([]uint64, n)
	var island []int // the currently partitioned set, nil when healed

	for round := 0; round < rounds; round++ {
		if omission {
			// Re-draw the faults of a few links, and cut or heal an island.
			for i := 0; i < 1+n/8; i++ {
				from, to := src.Intn(n), src.Intn(n)
				drop, dup, reorder := 0.4*src.Float64(), 0.3*src.Float64(), 0.3*src.Float64()
				if src.Intn(4) == 0 {
					drop, dup, reorder = 0, 0, 0
				}
				both(func(net *Network) {
					net.SetDropRate(from, to, drop)
					net.SetDupRate(from, to, dup)
					net.SetReorderRate(from, to, reorder)
				})
			}
			switch {
			case island == nil && src.Intn(6) == 0:
				for i, size := 0, 1+src.Intn(max(1, n/4)); i < size; i++ {
					island = append(island, src.Intn(n))
				}
				both(func(net *Network) { net.Partition(island) })
			case island != nil && src.Intn(4) == 0:
				both(func(net *Network) { net.Heal(island) })
				island = nil
			}
		}

		plan := scheduleSends(src, n, round, 0)
		both(func(net *Network) { runSends(net, plan) })

		// Mid-round membership changes: a sender that fails here has frames
		// queued but gets no EndRound; a revived slot is drained and, under
		// omission, reborn at a new epoch.
		for i := 0; i < 1+n/32; i++ {
			node := src.Intn(n)
			switch src.Intn(5) {
			case 0:
				both(func(net *Network) { net.SetFailed(node, true) })
			case 1:
				epochs[node]++
				both(func(net *Network) {
					net.SetFailed(node, false)
					net.SetEpoch(node, 1+epochs[node])
				})
			}
		}
		if src.Intn(8) == 0 {
			node := src.Intn(n)
			both(func(net *Network) { net.Drop(node) })
		}

		plan = scheduleSends(src, n, round, 1)
		both(func(net *Network) { runSends(net, plan) })

		sCosts, sFabric := sparse.FinishRound()
		dCosts, dFabric := dense.FinishRound()
		if math.Float64bits(sFabric) != math.Float64bits(dFabric) {
			t.Fatalf("round %d: fabric cost %v, dense reference %v", round, sFabric, dFabric)
		}
		for i := range sCosts {
			if math.Float64bits(sCosts[i]) != math.Float64bits(dCosts[i]) {
				t.Fatalf("round %d: node %d cost %v, dense reference %v", round, i, sCosts[i], dCosts[i])
			}
		}
		if src.Intn(8) == 0 {
			node := src.Intn(n)
			both(func(net *Network) { net.Drop(node) })
		}
		sGot, dGot := receiveAll(sparse), receiveAll(dense)
		for to := range sGot {
			if sGot[to] != dGot[to] {
				t.Fatalf("round %d: node %d received\n  %s\ndense reference\n  %s", round, to, sGot[to], dGot[to])
			}
		}
		if s, d := sparse.TotalBytes(), dense.TotalBytes(); s != d {
			t.Fatalf("round %d: %d bytes sent, dense reference %d", round, s, d)
		}
		sStats, _ := sparse.OmissionStats()
		dStats, _ := dense.OmissionStats()
		if sStats != dStats {
			t.Fatalf("round %d: omission stats\n  %+v\ndense reference\n  %+v", round, sStats, dStats)
		}
		if s, d := fmt.Sprint(sparse.Err()), fmt.Sprint(dense.Err()); s != d {
			t.Fatalf("round %d: error %q, dense reference %q", round, s, d)
		}
	}
	stats, _ := sparse.OmissionStats()
	t.Logf("%d bytes, %+v, err=%v", sparse.TotalBytes(), stats, sparse.Err())
}
