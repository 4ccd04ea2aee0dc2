// Package bufpool is a stub of the real pool with the same import path and
// method shapes, so the analyzer's type-based matching works in testdata.
package bufpool

type Pool struct{ free [][]byte }

func New() *Pool { return &Pool{} }

func (p *Pool) Get() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b[:0]
	}
	return nil
}

func (p *Pool) Put(buf []byte) {
	if cap(buf) > 0 {
		p.free = append(p.free, buf[:0])
	}
}

func (p *Pool) GetSlot(k int) []byte { return p.Get() }

func (p *Pool) PutSlot(k int, buf []byte) { p.Put(buf) }
