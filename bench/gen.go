package main

import "math"

// Every input the benchmark feeds the program derives from -seed through
// these generators, so equal seeds give byte-identical inputs.

// mix64 is splitmix64's finalizer: a bijection on uint64, so distinct
// key indices map to distinct wire keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rng is splitmix64: tiny state, one multiply chain per draw, and
// seedable from any value including zero.
type rng struct{ s uint64 }

// newRNG derives an independent generator for one (seed, purpose, lane).
func newRNG(seed uint64, purpose string, lane int) rng {
	h := seed
	for _, c := range []byte(purpose) {
		h = mix64(h ^ uint64(c))
	}
	return rng{s: mix64(h ^ uint64(lane)<<32)}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n) by multiply-shift on the high
// word; the bias is below 2^-32 for the ranges used here.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, by the
// closed-form method of Gray et al. that YCSB uses (the standard
// library's rand.Zipf cannot express theta < 1). Rank 0 is the hottest.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan, half       float64
}

func zeta(n int, theta float64) float64 {
	var z float64
	for i := 1; i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

func newZipf(n int, theta float64) *zipf {
	zetan := zeta(n, theta)
	return &zipf{
		n:     float64(n),
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
		half:  math.Pow(0.5, theta),
	}
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// keyPicker draws key indices local to one worker's or connection's
// partition: uniform, or zipfian with the ranks scattered over the
// partition (odd multiplier on a power-of-two size: a bijection) so the
// hot keys are not neighbours and a new seed moves them.
type keyPicker struct {
	r      rng
	n      int
	z      *zipf // nil = uniform
	offset int
}

const scatter = 0x9E3779B1 // odd: multiplication mod 2^k permutes

func newKeyPicker(r rng, n int, theta float64) *keyPicker {
	p := &keyPicker{r: r, n: n}
	if theta > 0 {
		if n&(n-1) != 0 {
			panic("bench: zipfian partitions must be a power of two")
		}
		p.z = newZipf(n, theta)
		p.offset = p.r.intn(n)
	}
	return p
}

func (p *keyPicker) next() int {
	if p.z == nil {
		return p.r.intn(p.n)
	}
	return (p.z.rank(p.r.float())*scatter + p.offset) & (p.n - 1)
}

// Set-structure operations.
const (
	setContains = iota
	setInsert
	setDelete
)

// setStream is one worker's endless operation stream over its own key
// partition: key = local*stride + lane, so workers never share a key and
// each can check every result against a private model. It is a value, so
// a worker can keep it on its own stack: two workers' generator states
// allocated side by side would share a cache line and slow each other
// by an amount that changes from process to process.
type setStream struct {
	r                rng
	half             uint64 // keys in the partition
	containsT, insT  uint64 // cumulative thresholds on a 32-bit draw
	stride, laneBias uint64
}

func newSetStream(seed uint64, lane, lanes, keyRange int, containsShare, insertShare float64) *setStream {
	return &setStream{
		r:         newRNG(seed, "set-ops", lane),
		half:      uint64(keyRange / lanes),
		containsT: uint64(containsShare * (1 << 32)),
		insT:      uint64((containsShare + insertShare) * (1 << 32)),
		stride:    uint64(lanes),
		laneBias:  uint64(lane),
	}
}

// next returns the operation, the key and the key's index in the
// partition (for the model bitset).
func (s *setStream) next() (op int, key uint64, local uint64) {
	u := s.r.next()
	local = (u >> 32) * s.half >> 32
	key = local*s.stride + s.laneBias
	switch d := u & 0xFFFFFFFF; {
	case d < s.containsT:
		return setContains, key, local
	case d < s.insT:
		return setInsert, key, local
	}
	return setDelete, key, local
}

// prefillSet chooses exactly count of the keyRange keys, seeded, as a
// per-lane bitset over local indices (bit set = key present).
func prefillSet(seed uint64, lanes, keyRange, count int) [][]uint64 {
	perm := make([]int, keyRange)
	for i := range perm {
		perm[i] = i
	}
	r := newRNG(seed, "prefill", 0)
	for i := keyRange - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	sets := make([][]uint64, lanes)
	for l := range sets {
		sets[l] = make([]uint64, (keyRange/lanes+63)/64)
	}
	for _, k := range perm[:count] {
		lane, local := k%lanes, k/lanes
		sets[lane][local/64] |= 1 << (local % 64)
	}
	return sets
}
