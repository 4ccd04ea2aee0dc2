package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"imitator/internal/bufpool"
	"imitator/internal/metrics"
)

// TestChunkBoundsProperty checks the chunking invariants with testing/quick:
// chunks tile [0, n) exactly (no gap, no overlap, in order), there are at
// most min(p, n) of them, and sizes differ by at most one.
func TestChunkBoundsProperty(t *testing.T) {
	prop := func(n16 uint16, p8 int8) bool {
		n, p := int(n16)%5000, int(p8)
		bounds := chunkBounds(n, p)
		if n == 0 {
			return len(bounds) == 0
		}
		want := p
		if want < 1 {
			want = 1
		}
		if want > n {
			want = n
		}
		if len(bounds) != want {
			return false
		}
		next, minSz, maxSz := 0, n, 0
		for _, b := range bounds {
			if b[0] != next || b[1] <= b[0] {
				return false
			}
			sz := b[1] - b[0]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			next = b[1]
		}
		return next == n && maxSz-minSz <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestChunkBoundsEdgeCases pins the explicit boundary behaviors the
// property test covers only probabilistically.
func TestChunkBoundsEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		n, p int
		want [][2]int
	}{
		{"empty", 0, 4, nil},
		{"empty one worker", 0, 1, nil},
		{"fewer items than workers", 3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"one worker", 5, 1, [][2]int{{0, 5}}},
		{"zero workers clamps to one", 5, 0, [][2]int{{0, 5}}},
		{"negative workers clamps to one", 5, -3, [][2]int{{0, 5}}},
		{"single item", 1, 4, [][2]int{{0, 1}}},
		{"remainder spread", 7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := chunkBounds(tc.n, tc.p)
			if len(got) != len(tc.want) {
				t.Fatalf("chunkBounds(%d, %d) = %v, want %v", tc.n, tc.p, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("chunkBounds(%d, %d) = %v, want %v", tc.n, tc.p, got, tc.want)
				}
			}
		})
	}
	// appendChunkBounds reuses the destination slice without reallocating
	// when capacity suffices.
	scratch := make([][2]int, 0, 8)
	out := appendChunkBounds(scratch, 10, 4)
	if len(out) != 4 || &out[0] != &scratch[:1][0] {
		t.Fatalf("appendChunkBounds did not reuse the scratch slice")
	}
}

// TestChunkedReductionProperty is the determinism argument in miniature:
// for any entry count, worker count and per-entry destination assignment,
// running the staged encoding through the pool and merging in chunk order
// yields exactly the bytes (and metric sums) the sequential loop produces.
func TestChunkedReductionProperty(t *testing.T) {
	const numDst = 4
	const maxWorkers = 8
	c := &Cluster[int32, int32]{met: metrics.NewCluster(1), pool: bufpool.New()}
	prop := func(payload []byte, p8 uint8) bool {
		n := len(payload)
		c.cfg.WorkersPerNode = int(p8)%maxWorkers + 1
		// Vary the host slot cap independently of the chunk count: the
		// merged output must not depend on it.
		c.chunkSlots = int(p8)/maxWorkers%4 + 1

		// Sequential reference: entry i emits one record to dst i%numDst.
		want := make([][]byte, numDst)
		var wantMsgs int64
		for i := 0; i < n; i++ {
			dst := i % numDst
			want[dst] = append(want[dst], byte(i), payload[i])
			wantMsgs++
		}

		nd := &node[int32, int32]{
			id:        0,
			met:       &c.met.Nodes[0],
			sendBuf:   make([][]byte, numDst),
			noticeBuf: make([][]byte, numDst),
			stagers:   make([]*stager, maxWorkers),
		}
		for w := range nd.stagers {
			nd.stagers[w] = &stager{
				pool:   c.pool,
				send:   make([][]byte, numDst),
				notice: make([][]byte, numDst),
			}
		}
		before := nd.met.SyncMsgs
		c.chunked(nd, n, func(st *stager, lo, hi int) {
			for i := lo; i < hi; i++ {
				dst := i % numDst
				st.setBuf(dst, append(st.buf(dst), byte(i), payload[i]))
				st.met.SyncMsgs++
			}
		})
		for dst := 0; dst < numDst; dst++ {
			if !bytes.Equal(nd.sendBuf[dst], want[dst]) {
				return false
			}
		}
		return nd.met.SyncMsgs-before == wantMsgs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
