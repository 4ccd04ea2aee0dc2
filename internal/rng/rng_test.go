package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0.4, 1.2); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	z := NewZipf(r, 1000, 2.0)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// With alpha=2 the head must dominate: item 0 ~ 6x item 1 would be too
	// strict; require monotone-ish decay head >> tail.
	if counts[0] < 4*counts[3] {
		t.Errorf("expected strong head skew: counts[0]=%d counts[3]=%d", counts[0], counts[3])
	}
	tail := 0
	for _, c := range counts[500:] {
		tail += c
	}
	if tail > counts[0] {
		t.Errorf("tail mass %d exceeds head mass %d", tail, counts[0])
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1.0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestShuffleDrawsPinned: the generic Shuffle permutes a []int32 exactly as
// Source.Shuffle permutes a []int of the same length, and leaves the source
// at the same point of its stream. The permutations and the next draw were
// recorded before Source.Shuffle delegated to the generic loop, so a change
// to either that moves one draw fails here.
func TestShuffleDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		perm []int
		next uint64
	}{
		{[]int{6, 10, 7, 3, 4, 11, 2, 8, 1, 9, 5, 0}, 0x6a133aa54593c70a},
		{[]int{20, 19, 33, 3, 25, 4, 10, 34, 18, 12, 26, 23, 0, 1, 9, 28, 5, 16, 21,
			22, 15, 32, 13, 2, 31, 29, 8, 7, 6, 17, 35, 36, 27, 30, 11, 24, 14}, 0x84c8f1e94c39e6d},
	} {
		n := len(c.perm)
		seed := 0x5157494d + uint64(n)
		ints, ids := make([]int, n), make([]int32, n)
		for i := range ints {
			ints[i], ids[i] = i, int32(i)
		}
		r := New(seed)
		r.Shuffle(ints)
		if !slices.Equal(ints, c.perm) {
			t.Errorf("n=%d: Source.Shuffle gave %v, want %v", n, ints, c.perm)
		}
		if next := r.Uint64(); next != c.next {
			t.Errorf("n=%d: Source.Shuffle left the stream at %#x, want %#x", n, next, c.next)
		}
		r = New(seed)
		Shuffle(r, ids)
		for i, v := range ids {
			if int(v) != c.perm[i] {
				t.Fatalf("n=%d: Shuffle on []int32 gave %v, want %v", n, ids, c.perm)
			}
		}
		if next := r.Uint64(); next != c.next {
			t.Errorf("n=%d: Shuffle on []int32 left the stream at %#x, want %#x", n, next, c.next)
		}
	}
}

func TestHash64Stateless(t *testing.T) {
	if Hash64(12345) != Hash64(12345) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1) == Hash64(2) {
		t.Fatal("trivial Hash64 collision")
	}
}

func TestHash2Distribution(t *testing.T) {
	// Hash2 drives hash partitioning; check bucket spread over 8 buckets.
	counts := make([]int, 8)
	for i := uint64(0); i < 8000; i++ {
		counts[Hash2(i, 77)%8]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("bucket %d count %d outside [800,1200]", i, c)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 63, 2, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
