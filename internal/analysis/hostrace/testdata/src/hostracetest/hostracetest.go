// Fixture for the hostrace analyzer: every write class a hostpar body can
// make, safe and unsafe.
package hostracetest

import (
	"sync"

	"imitator/internal/hostpar"
)

type cluster struct {
	nodes  []int
	counts []int
	total  int
	byKey  map[int]int
	mu     sync.Mutex
}

func (c *cluster) sharedCounter(n int) {
	hostpar.For(n, 4, func(i int) {
		c.total += i // want `writes a captured variable \(total\)`
	})
}

func (c *cluster) indexDisjoint(n int) {
	hostpar.For(n, 4, func(i int) {
		c.counts[i] = i * 2 // disjoint slot: fine
	})
}

func (c *cluster) derivedOwnership(n int) {
	hostpar.Blocks(n, 1, 4, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			slot := v % len(c.counts)   // derived from an owned value: owned
			c.counts[slot] = c.nodes[v] // fine
		}
	})
}

// blocksScratch is a partitioner-shaped Blocks body whose scratch value
// lives outside it: every block writes the one captured variable.
func (c *cluster) blocksScratch(n int) {
	var h int
	hostpar.Blocks(n, 1, 4, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			h = v * 7 // want `writes a captured variable \(h\)`
			c.counts[v] = h
		}
	})
}

func (c *cluster) mapWrite(n int) {
	hostpar.For(n, 4, func(i int) {
		c.byKey[i] = i // want `a captured map`
	})
}

func (c *cluster) lockGuarded(n int) {
	hostpar.For(n, 4, func(i int) {
		c.mu.Lock()
		c.total += i // guarded: fine
		c.mu.Unlock()
	})
}

func (c *cluster) deferGuarded(n int) {
	hostpar.For(n, 4, func(i int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.total += i // guarded to end of body: fine
	})
}

func (c *cluster) sharedAlias(n, j int) {
	hostpar.For(n, 4, func(i int) {
		s := c.counts // alias of captured state, no owned index
		s[j] = i      // want `a local alias of captured state \(s\)`
	})
}

func (c *cluster) capturedRange(n int) {
	hostpar.For(n, 4, func(i int) {
		for k := range c.nodes {
			c.nodes[k] = 0 // want `writes a captured variable \(nodes\)`
		}
	})
}

func (c *cluster) localState(n int) {
	hostpar.For(n, 4, func(i int) {
		var acc []int
		cnt := 0
		for v := 0; v < i; v++ {
			acc = append(acc, v) // local accumulation: fine
			cnt++
		}
		_ = acc
		_ = cnt
	})
}

// helper closures defined in the enclosing function are followed.
func (c *cluster) localHelper(n int) {
	bump := func(v int) {
		c.counts[v]++ // fine: called with an owned argument
	}
	leak := func() {
		c.total++ // want `writes a captured variable \(total\)`
	}
	hostpar.For(n, 4, func(i int) {
		bump(i)
		leak()
	})
}

// eachLike stands in for callback iterators (EachEdgeRange): callback
// parameters are optimistically owned.
func eachLike(lo, hi int, fn func(i int)) {
	for i := lo; i < hi; i++ {
		fn(i)
	}
}

func (c *cluster) callbackParams(n int) {
	hostpar.Blocks(n, 1, 4, func(lo, hi int) {
		eachLike(lo, hi, func(i int) {
			c.counts[i] = i // owned callback param: fine
		})
	})
}

// runPhase stands in for the core phase pool, which a package-wide -race
// run gates instead: its bodies are not hostrace's to check.
func (c *cluster) runPhase(fn func(n int)) { fn(0) }

func (c *cluster) phasePool() {
	c.runPhase(func(n int) { c.total = n }) // no want: out of scope
}
