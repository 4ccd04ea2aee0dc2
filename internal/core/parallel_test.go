package core

import (
	"testing"
	"testing/quick"
)

// TestChunkBoundsProperty checks the chunking invariants with testing/quick:
// chunks tile [0, n) exactly (no gap, no overlap, in order), there are at
// most min(p, n) of them, and sizes differ by at most one.
func TestChunkBoundsProperty(t *testing.T) {
	prop := func(n16 uint16, p8 int8) bool {
		n, p := int(n16)%5000, int(p8)
		bounds := appendChunkBounds(nil, n, p)
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
			got := appendChunkBounds(nil, tc.n, tc.p)
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
