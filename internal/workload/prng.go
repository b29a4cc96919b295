package workload

// prng is a SplitMix64 pseudo-random generator. The workload models must be
// deterministic across platforms and Go releases (experiments are seeded),
// so the package carries its own generator rather than relying on
// math/rand's unspecified stream.
type prng struct {
	state uint64
}

func newPRNG(seed uint64) *prng {
	return &prng{state: seed ^ 0x9E3779B97F4A7C15}
}

// next returns the next 64 random bits.
func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n). n must be positive.
func (p *prng) intn(n int) int {
	return int(p.next() % uint64(n))
}

// uint64n returns a uniform value in [0, n). n must be positive.
func (p *prng) uint64n(n uint64) uint64 {
	return p.next() % n
}

// float returns a uniform value in [0, 1).
func (p *prng) float() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// perm returns a random permutation of [0, n).
func (p *prng) perm(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := p.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// zipfIndex returns an approximately Zipf-distributed index in [0, n):
// small indices are much more likely. skew > 0; larger is more skewed.
func (p *prng) zipfIndex(n int, skew float64) int {
	// Inverse-power transform: floor(n * u^s) concentrates mass near zero
	// for s > 1. It is not an exact Zipf law but reproduces the hot/cold
	// behaviour the workloads need, with no math.Pow in the hot path for
	// the common skews via repeated multiplication.
	u := p.float()
	v := u
	// v = u^ceil(skew) cheaply; fractional part folded via one more mul.
	k := int(skew)
	for i := 1; i < k; i++ {
		v *= u
	}
	if frac := skew - float64(k); frac > 0 {
		v *= 1 - frac*(1-u) // first-order approximation of u^frac
	}
	idx := int(v * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Random returns n values of the stationary, uniformly random 64-bit
// stream seeded by seed: the generator's raw output, with no cache filter
// or model structure (the paper's Figure 8 input).
func Random(n int, seed uint64) []uint64 {
	rng := newPRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.next()
	}
	return out
}
