// Package bufpool provides a byte-buffer free list for the engine's
// steady-state wire buffers. Per-round send buffers, activation notices and
// checkpoint encode scratch cycle sender -> network -> receiver -> pool ->
// sender; after a few warm-up supersteps every round runs on recycled
// buffers and the hot loop stops allocating.
//
// Buffers that serve a recurring role (node i's sync traffic to node j) go
// back to a slot named after the role (PutSlot/GetSlot), so the role finds
// the buffer it sized itself. The free list alone would hand racing nodes
// each other's buffers in a different order every round, and a small buffer
// landing on a large role regrows; a slot's buffer only ever sees one role.
//
// A plain mutex-guarded LIFO stack is deliberately used instead of
// sync.Pool: the engine wants deterministic reuse statistics (the metrics
// layer reports them) and buffers that survive GC cycles, and []byte values
// would box into interfaces on every sync.Pool round trip.
package bufpool

import "sync"

// Stats counts pool traffic. Gets - Misses is the number of reused buffers;
// a steady-state superstep loop shows Misses and (if buffers leak) the
// Gets/Puts gap flat across iterations.
type Stats struct {
	// Gets counts Get calls, Misses the Gets that found the pool empty and
	// returned nil (the caller's append allocates a fresh buffer).
	Gets   int64
	Misses int64
	// Puts counts buffers returned for reuse.
	Puts int64
}

// Reused returns the number of Gets served from the free list.
func (s Stats) Reused() int64 { return s.Gets - s.Misses }

// Pool is a LIFO free list of byte buffers. Safe for concurrent use.
type Pool struct {
	mu    sync.Mutex
	free  [][]byte
	slots [][]byte
	stats Stats
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Get returns a zero-length buffer with whatever capacity the free list has
// on top, or nil when empty; either way the caller appends into it. LIFO
// order keeps the most recently grown (hottest, largest) buffers in use.
func (p *Pool) Get() []byte {
	p.mu.Lock()
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		buf := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return buf[:0]
	}
	p.stats.Misses++
	p.mu.Unlock()
	return nil
}

// Put returns a buffer to the free list. Buffers without capacity are
// dropped; the pool never holds aliases of live data — callers must hand
// over ownership.
func (p *Pool) Put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	p.stats.Puts++
	p.free = append(p.free, buf[:0])
	p.mu.Unlock()
}

// GetSlot returns the buffer parked in slot k, or falls back to Get when the
// slot is empty. It counts as one Get either way.
func (p *Pool) GetSlot(k int) []byte {
	p.mu.Lock()
	if k < len(p.slots) && p.slots[k] != nil {
		buf := p.slots[k]
		p.slots[k] = nil
		p.stats.Gets++
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	return p.Get()
}

// PutSlot parks buf in slot k (k >= 0) for the next GetSlot(k); an occupied
// slot sends it to the free list instead. The slot table grows to the
// largest k seen.
func (p *Pool) PutSlot(k int, buf []byte) {
	if cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	if k >= len(p.slots) {
		p.slots = append(p.slots, make([][]byte, k+1-len(p.slots))...)
	}
	if p.slots[k] != nil {
		p.mu.Unlock()
		p.Put(buf)
		return
	}
	p.stats.Puts++
	p.slots[k] = buf[:0]
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Len returns the current free-list depth (for tests).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
