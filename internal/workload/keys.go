package workload

import (
	"math"
	"math/rand"
	"sort"
)

// KeyDist selects the key-popularity model.
type KeyDist int

// Key distributions.
const (
	// KeyUniform picks keys uniformly over the population.
	KeyUniform KeyDist = iota
	// KeyZipf picks keys Zipf(s)-distributed: key 0 most popular.
	KeyZipf
)

// String names the distribution.
func (d KeyDist) String() string {
	switch d {
	case KeyUniform:
		return "uniform"
	case KeyZipf:
		return "zipf"
	}
	return "keydist?"
}

// KeyConfig tunes the key-popularity model.
type KeyConfig struct {
	Dist KeyDist
	// Population is the key-space size (default 256).
	Population int
	// ZipfS is the Zipf exponent (default 1.1).
	ZipfS float64
}

func (c *KeyConfig) fill() {
	if c.Population <= 0 {
		c.Population = 256
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
}

// keyPicker draws keys from the configured distribution. The Zipf CDF
// is precomputed so the hot path is one binary search, no allocation.
type keyPicker struct {
	cfg KeyConfig
	cdf []float64 // KeyZipf: cdf[k] = P(key <= k), cdf[n-1] == 1
}

func newKeyPicker(cfg KeyConfig) *keyPicker {
	cfg.fill()
	p := &keyPicker{cfg: cfg}
	if cfg.Dist == KeyZipf {
		p.cdf = make([]float64, cfg.Population)
		total := 0.0
		for i := range p.cdf {
			total += 1 / math.Pow(float64(i+1), cfg.ZipfS)
			p.cdf[i] = total
		}
		for i := range p.cdf {
			p.cdf[i] /= total
		}
		p.cdf[len(p.cdf)-1] = 1 // exact despite rounding
	}
	return p
}

// Keys is the exported face of the key-popularity sampler, for
// experiments (E12) that drive the generator outside the sweep runner.
// The Zipf CDF is precomputed once — at a 10^6-key population that is
// the difference between one binary search per op and one million
// pow() calls per op.
type Keys struct {
	p   *keyPicker
	rng *rand.Rand
}

// NewKeys builds a seeded sampler over cfg's distribution.
func NewKeys(cfg KeyConfig, seed int64) *Keys {
	return &Keys{p: newKeyPicker(cfg), rng: rand.New(rand.NewSource(seed))}
}

// Pick draws one key.
func (k *Keys) Pick() int { return k.p.pick(k.rng) }

// pick draws one key.
func (p *keyPicker) pick(rng *rand.Rand) int {
	if p.cfg.Dist == KeyZipf {
		return sort.SearchFloat64s(p.cdf, rng.Float64())
	}
	return rng.Intn(p.cfg.Population)
}
