package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). Experiments seed one Rand so that every run of an
// experiment is bit-for-bit reproducible regardless of Go version.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed nonzero state even for small seeds.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponentially distributed value with the given mean.
// It is used for Poisson request inter-arrival times.
func (r *Rand) ExpFloat64(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// NormFloat64 returns a normally distributed value with mean 0 and the given
// standard deviation, via the Box–Muller transform.
func (r *Rand) NormFloat64(stddev float64) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	return stddev * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Pick returns a random index weighted by the given non-negative weights.
// It panics if the weights sum to zero or the slice is empty.
func (r *Rand) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("sim: Pick with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Fork derives an independent generator whose stream is a deterministic
// function of the parent state and the label. It lets subsystems draw random
// numbers without perturbing each other's streams.
func (r *Rand) Fork(label uint64) *Rand {
	return NewRand(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}
