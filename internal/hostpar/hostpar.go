// Package hostpar provides host-side parallelism helpers for the
// data-preparation paths: graph generation, CSR construction, partitioning
// and cluster loading. These loops run on the real machine's cores, outside
// the simulated cost model, so the only invariant they must preserve is that
// their OUTPUT is independent of the worker count — every caller shards its
// work positionally (each unit writes only indexes it owns) and, where
// random numbers are involved, derives one rng stream per fixed-size shard
// rather than per worker.
//
// That contract is gated at run time. CI's "Host-parallel bodies under race,
// repeated" step runs, under go test -race -count=10, the width-invariance
// test that TestCallSitesCovered names for each call site; each sizes its
// input past two shards or blocks, so every body runs on two goroutines.
//
// hostpar's width is pure host scheduling and must never leak into
// simulated results; internal/core's Config.WorkersPerNode chunks are a
// cost-model input and run on no hostpar worker.
package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Limit is the default worker cap: the process's GOMAXPROCS.
func Limit() int { return runtime.GOMAXPROCS(0) }

// clampWidth resolves a requested width: <= 0 means Limit(), and the result
// never exceeds n (no point parking idle goroutines).
func clampWidth(width, n int) int {
	if width <= 0 {
		width = Limit()
	}
	if width > n {
		width = n
	}
	if width < 1 {
		width = 1
	}
	return width
}

// For runs fn(i) for every i in [0, n) on up to width goroutines (width <= 0
// means Limit()). Work is handed out dynamically, so fn must write only to
// state owned by index i; under that contract the result is identical for
// every width, including the inline width-1 fast path.
func For(n, width int, fn func(i int)) {
	if n <= 0 {
		return
	}
	width = clampWidth(width, n)
	if width == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Blocks splits [0, n) into contiguous blocks of at least minBlock elements
// (at most one block per worker-slot beyond that floor) and runs fn(lo, hi)
// for each. Block boundaries depend on width, so callers must only use
// Blocks for loops whose output is position-determined (writes to [lo, hi)
// slots) — never to derive per-block rng streams.
func Blocks(n, minBlock, width int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minBlock < 1 {
		minBlock = 1
	}
	width = clampWidth(width, n/minBlock) // rounding down keeps every block at minBlock or more
	base, rem := n/width, n%width
	lo := 0
	bounds := make([][2]int, width)
	for b := 0; b < width; b++ {
		hi := lo + base
		if b < rem {
			hi++
		}
		bounds[b] = [2]int{lo, hi}
		lo = hi
	}
	For(width, width, func(b int) {
		fn(bounds[b][0], bounds[b][1])
	})
}
