// Package rng provides small, fast, deterministic random number generators
// used throughout the simulator. Determinism matters: every dataset,
// partitioning decision and failure injection in this repository is a pure
// function of a seed, so experiments are exactly reproducible.
package rng

import "math"

// Source is a splitmix64-seeded xoshiro256** generator. It is not safe for
// concurrent use; create one Source per goroutine.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, as recommended by
// the xoshiro authors to avoid correlated low-entropy seeds.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm, src.s[i] = splitmix64(sm)
	}
	return &src
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo1 := t & mask
	hi1 := t >> 32
	lo1 += a0 * b1
	hi = a1*b1 + hi1 + (lo1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normal variate with the given mu and sigma of the
// underlying normal. The paper uses mu=0.4, sigma=1.2 (Facebook interaction
// weights) for synthetic SSSP edge weights.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^alpha using inverse-CDF on a precomputed table. For repeated
// sampling use NewZipf.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a Zipf sampler over [0, n) with exponent alpha > 0.
func NewZipf(src *Source, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -alpha)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	return &Zipf{cdf: cdf, src: src}
}

// Next returns the next Zipf-distributed sample.
func (z *Zipf) Next() int {
	u := z.src.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher-Yates), drawing exactly what Perm
// draws for len(p): shuffling the identity is Perm.
func (r *Source) Shuffle(p []int) { Shuffle(r, p) }

// Shuffle is Source.Shuffle for any element type: it makes the same draws
// for a slice of the same length, so a schedule of 4-byte ids is permuted
// exactly like one of ints.
func Shuffle[E any](r *Source, p []E) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Hash64 is a stateless mix of a 64-bit value (splitmix64 finalizer). It is
// used for hash partitioning so that placement does not depend on iteration
// order.
func Hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash2 mixes two 64-bit values into one.
func Hash2(a, b uint64) uint64 {
	return Hash64(a*0x9e3779b97f4a7c15 + Hash64(b))
}
