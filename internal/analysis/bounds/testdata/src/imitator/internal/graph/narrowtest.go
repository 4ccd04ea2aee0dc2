// Fixture for the narrowing analyzer. The package path matters: the
// analyzer only fires inside the SoA/CSR-building packages, so the fixture
// pretends to be imitator/internal/graph.
package graph

const maxInt32 = 1<<31 - 1

// unguardedBuild narrows a len-derived index with no bound check.
func unguardedBuild(keys []uint16) []int32 {
	idx := make([]int32, len(keys))
	for i := range keys {
		idx[i] = int32(i) // want `int32 conversion narrows a len/cap-derived value`
	}
	return idx
}

// unguardedLen narrows len() directly.
func unguardedLen(payload []byte) uint32 {
	return uint32(len(payload)) // want `uint32 conversion narrows a len/cap-derived value`
}

// guardedBuild is the canonical fix: a diverging bound check dominates the
// narrowing, clearing both len(keys) and range indexes over keys.
func guardedBuild(keys []uint16) []int32 {
	if len(keys) > maxInt32 {
		panic("too many keys")
	}
	idx := make([]int32, len(keys))
	for i := range keys {
		idx[i] = int32(i) // ok: bounded above
	}
	return idx
}

// backstopWidth: an int32 backstop bounds the count, and so every index
// derived from it, to 31 bits. A conversion to int32 passes; one narrower
// than the bound is still reported, also when it is widened again.
func backstopWidth(keys []uint16) []int32 {
	n := len(keys)
	if int64(n) > maxInt32 {
		panic("too many keys")
	}
	idx := make([]int32, n)
	for i := 0; i < n; i++ {
		idx[i] = int32(i)        // ok: 31 bits fit int32
		idx[i] = int32(int16(i)) // want `int16 conversion narrows a len/cap-derived value`
	}
	for i := range idx {
		_ = uint16(i) // want `uint16 conversion narrows a len/cap-derived value`
	}
	if len(keys) > 1<<16-1 {
		panic("too many keys for uint16")
	}
	for i := range keys {
		_ = uint16(i) // ok: len(keys) fits 16 bits
		_ = int16(i)  // want `int16 conversion narrows a len/cap-derived value`
	}
	return idx
}

// equalGuard pins len(keys) to a caller-checked n with a diverging !=, which
// bounds keys as well as an ordered comparison would.
func equalGuard(keys []uint16, n int) []int32 {
	if len(keys) != n {
		panic("keys and n disagree")
	}
	idx := make([]int32, n)
	for i := range keys {
		idx[i] = int32(i) // ok: len(keys) was compared
	}
	return idx
}

// guardedVar clears a tainted variable by comparing it before narrowing.
func guardedVar(buf []byte) (uint32, bool) {
	n := len(buf)
	if n > maxInt32 {
		return 0, false
	}
	return uint32(n), true // ok: n was checked
}

// lowerGuard: a diverging `n < 1` rules out small values only; past it n is
// still unbounded above.
func lowerGuard(xs []int) int8 {
	n := len(xs)
	if n < 1 {
		return 0
	}
	return int8(n) // want `int8 conversion narrows a len/cap-derived value`
}

// inductionTaint propagates len-taint through a classic for loop.
func inductionTaint(xs []int) []int32 {
	out := make([]int32, 0, 8)
	n := len(xs)
	for i := 0; i < n; i++ {
		out = append(out, int32(i)) // want `int32 conversion narrows a len/cap-derived value`
	}
	return out
}

// cleanSources shows values that never carry size taint: hashes, modular
// reductions, masks, min clamps, constants, and ranges over fixed-size
// containers.
func cleanSources(xs []int, h uint64, numNodes int) []int32 {
	out := make([]int32, 4)
	for i := range out { // make() with a clean size: not a size worth guarding
		out[i] = int32(i)
	}
	_ = int32(h % uint64(numNodes)) // modular reduction bounds the value
	_ = uint16(h & 0xffff)          // mask bounds the value
	_ = int32(min(len(xs), 1024))   // min clamps the value
	_ = int32(maxInt32)             // constants are compiler-checked
	return out
}

// widening never fires: converting up or sideways loses nothing.
func widening(xs []byte) (int64, uint64) {
	return int64(len(xs)), uint64(len(xs))
}
