// Package bufowntest exercises the bufown analyzer against the PR 2 buffer
// lifecycle: wire-slot seed → store or append-and-recycle → net transfer →
// receiver recycle, plus the failure modes (leak, double Put, use after Put).
package bufowntest

import (
	"imitator/internal/bufpool"
	"imitator/internal/netsim"
)

type node struct {
	pool    *bufpool.Pool
	sendBuf [][]byte
	aux     []byte
}

// --- clean lifecycle cases ---

// seed: an empty buffer slot is seeded from the pool and returned to the caller
// (ownership flows out through the return value).
func seed(pool *bufpool.Pool, slot []byte) []byte {
	b := slot
	if b == nil {
		b = pool.Get()
	}
	return b
}

// seedStore: seeding straight into an owning container transfers ownership.
func seedStore(nd *node, dst int) {
	nd.sendBuf[dst] = nd.pool.Get()
}

// flowThrough: the append-style encoder idiom — ownership rides the result.
func flowThrough(pool *bufpool.Pool, v byte) []byte {
	buf := pool.Get()
	buf = encode(buf, v)
	return buf
}

func encode(buf []byte, v byte) []byte { return append(buf, v) }

// steal: a staged buffer is either stored into an empty node slot or
// appended to the slot's buffer and recycled — released on both paths.
func steal(nd *node, dst int, buf []byte, pool *bufpool.Pool) {
	staged := pool.Get()
	staged = encode(staged, 1)
	if len(nd.sendBuf[dst]) == 0 {
		nd.sendBuf[dst] = staged
	} else {
		nd.sendBuf[dst] = append(nd.sendBuf[dst], staged...)
		pool.Put(staged)
	}
}

// transfer: flushing to the network hands the payload to the receiver;
// a failed destination would drop it silently, so that path recycles.
func transfer(nd *node, net *netsim.Network, pool *bufpool.Pool, dst int) {
	buf := pool.Get()
	buf = encode(buf, 2)
	if net.Failed(dst) {
		pool.Put(buf)
	} else {
		net.Send(0, dst, 1, buf)
	}
}

// recycle: the receiver returns decoded payload buffers to the pool.
func recycle(pool *bufpool.Pool, payloads [][]byte) {
	for _, p := range payloads {
		if cap(p) > 0 {
			pool.Put(p)
		}
	}
}

// deferredRecycle: releasing via defer keeps later uses legal.
func deferredRecycle(pool *bufpool.Pool) int {
	buf := pool.Get()
	defer pool.Put(buf)
	buf = encode(buf, 3)
	return len(buf)
}

// goroutineHandoff: a closure capture counts as an ownership transfer.
func goroutineHandoff(pool *bufpool.Pool, sink chan []byte) {
	buf := pool.Get()
	go func() { sink <- buf }()
}

// --- violations ---

// leakPlain: the buffer reaches the return with no release.
func leakPlain(pool *bufpool.Pool) int {
	buf := pool.Get() // want `not Put, transferred or stored on every path`
	buf = encode(buf, 4)
	return len(buf)
}

// leakSomePaths: released on the success path only.
func leakSomePaths(nd *node, net *netsim.Network, pool *bufpool.Pool, dst int) {
	buf := pool.Get() // want `not Put, transferred or stored on every path`
	buf = encode(buf, 5)
	if net.Failed(dst) {
		return // failed-destination path forgets to recycle
	}
	net.Send(0, dst, 1, buf)
}

// leakDiscard: minting a buffer into the blank identifier drops it.
func leakDiscard(pool *bufpool.Pool) {
	_ = pool.Get() // want `not Put, transferred or stored on every path`
}

// doublePut: the classic failed-destination bug — recycled twice.
func doublePut(pool *bufpool.Pool, cond bool) {
	buf := pool.Get()
	buf = encode(buf, 6)
	pool.Put(buf)
	pool.Put(buf) // want `double Put`
}

// doublePutSlot: parking a buffer in its role's slot releases it like Put.
func doublePutSlot(pool *bufpool.Pool) {
	buf := pool.GetSlot(3)
	buf = encode(buf, 6)
	pool.PutSlot(3, buf)
	pool.Put(buf) // want `double Put`
}

// leakSlot: a buffer taken from a slot is owned like one from Get.
func leakSlot(pool *bufpool.Pool) int {
	buf := pool.GetSlot(3) // want `not Put, transferred or stored on every path`
	return len(buf)
}

// useAfterPut: reading a recycled buffer races with its next owner.
func useAfterPut(pool *bufpool.Pool) byte {
	buf := pool.Get()
	buf = encode(buf, 7)
	pool.Put(buf)
	return buf[0] // want `use of buffer buf after Put`
}

// overwriteLive: rebinding the name orphans the first buffer.
func overwriteLive(pool *bufpool.Pool) {
	buf := pool.Get()
	buf = pool.Get() // want `overwritten while still live`
	pool.Put(buf)
}

// annotated: a justified exception is suppressed.
func annotated(pool *bufpool.Pool) []byte {
	buf := pool.Get() //imitator:bufown-ok ownership recorded in an external registry for this test
	return append([]byte(nil), buf...)
}
