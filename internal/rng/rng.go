// Package rng supplies the deterministic random sources used by every
// stochastic component of the simulator: uniform and Gaussian variates,
// circularly-symmetric complex Gaussians for noise and Rayleigh channels,
// and a few distribution helpers.
//
// Every simulation object takes a *Source seeded explicitly so that
// experiments are exactly reproducible run to run.
//
// Concurrency contract: a Source is NOT goroutine-safe — its methods
// mutate the underlying generator state without locking, and sharing
// one across goroutines both races and destroys reproducibility (the
// interleaving, not the seed, would decide the stream). Parallel code
// must give every goroutine its own Source: either New(seed) with a
// distinct seed per worker job (what netsim.ScenarioRunner does) or
// Split() from a parent in a deterministic order before the goroutines
// start.
package rng

import (
	"math"
	"math/rand"
)

// Source wraps math/rand with the distributions the PHY and channel
// models need. It is not safe for concurrent use; give each goroutine
// its own Source via New or Split (see the package comment).
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with the given value.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child source. The child's stream is a
// deterministic function of the parent state, so splitting in a fixed
// order preserves reproducibility while decoupling consumers.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Bit returns 0 or 1 with equal probability.
func (s *Source) Bit() byte {
	return byte(s.r.Int63() & 1)
}

// Bits fills a slice of n equiprobable bits.
func (s *Source) Bits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = s.Bit()
	}
	return out
}

// Bytes fills a slice with n uniform random bytes.
func (s *Source) Bytes(n int) []byte {
	out := make([]byte, n)
	s.r.Read(out)
	return out
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// ComplexGaussian returns a circularly-symmetric complex Gaussian sample
// with total variance sigma2 (that is, variance sigma2/2 per real
// dimension). This is the CN(0, sigma2) distribution that models both
// thermal noise and Rayleigh-faded channel taps.
func (s *Source) ComplexGaussian(sigma2 float64) complex128 {
	sd := math.Sqrt(sigma2 / 2)
	return complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
}

// ComplexGaussianVec fills a new slice with n CN(0, sigma2) samples.
func (s *Source) ComplexGaussianVec(n int, sigma2 float64) []complex128 {
	out := make([]complex128, n)
	sd := math.Sqrt(sigma2 / 2)
	for i := range out {
		out[i] = complex(sd*s.r.NormFloat64(), sd*s.r.NormFloat64())
	}
	return out
}

// Rayleigh returns a Rayleigh-distributed variate with scale sigma
// (the mode); it is the magnitude of a CN(0, 2*sigma^2) sample.
func (s *Source) Rayleigh(sigma float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return sigma * math.Sqrt(-2*math.Log(u))
}

// Exponential returns an exponential variate with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}
