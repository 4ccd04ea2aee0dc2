package hostpar

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// widths covers the default (0), the inline path (1), a width that does not
// divide n, exactly n, and more workers than work.
func widths(n int) []int { return []int{0, 1, 3, n, n + 5} }

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		for _, width := range widths(n) {
			visits := make([]atomic.Int32, n)
			For(n, width, func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("For(n=%d, width=%d) visited index %d %d times", n, width, i, got)
				}
			}
		}
	}
}

func TestBlocksCoverRangeContiguously(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		for _, minBlock := range []int{-1, 1, 3, 16, 2 * n} {
			for _, width := range widths(n) {
				var mu sync.Mutex
				var blocks [][2]int
				Blocks(n, minBlock, width, func(lo, hi int) {
					mu.Lock()
					blocks = append(blocks, [2]int{lo, hi})
					mu.Unlock()
				})
				name := fmt.Sprintf("Blocks(n=%d, minBlock=%d, width=%d)", n, minBlock, width)
				// Blocks arrive in any order; each index must fall in exactly
				// one, and chaining them by start must walk [0, n).
				next := make(map[int]int, len(blocks))
				for _, b := range blocks {
					if b[1] <= b[0] {
						t.Fatalf("%s ran the empty block %v", name, b)
					}
					if _, dup := next[b[0]]; dup {
						t.Fatalf("%s ran two blocks starting at %d", name, b[0])
					}
					next[b[0]] = b[1]
					// Only a range shorter than minBlock may yield a shorter block.
					if size := b[1] - b[0]; size < min(max(minBlock, 1), n) {
						t.Fatalf("%s ran block %v, shorter than minBlock", name, b)
					}
				}
				at := 0
				for range blocks {
					hi, ok := next[at]
					if !ok {
						t.Fatalf("%s left a gap at %d: %v", name, at, blocks)
					}
					at = hi
				}
				if at != n {
					t.Fatalf("%s covered [0, %d), want [0, %d): %v", name, at, n, blocks)
				}
				if width > 0 && len(blocks) > width {
					t.Fatalf("%s ran %d blocks, more than its width", name, len(blocks))
				}
			}
		}
	}
}

func TestEmptyRangeIsNoOp(t *testing.T) {
	for _, n := range []int{0, -3} {
		For(n, 4, func(int) { t.Fatalf("For(n=%d) called fn", n) })
		Blocks(n, 2, 4, func(int, int) { t.Fatalf("Blocks(n=%d) called fn", n) })
	}
}
