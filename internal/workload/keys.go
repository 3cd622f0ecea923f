package workload

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/netsim"
)

// KeyDist selects the key-popularity model.
type KeyDist int

// Key distributions.
const (
	// KeyUniform picks keys uniformly over the population.
	KeyUniform KeyDist = iota
	// KeyZipf picks keys Zipf(s)-distributed: key 0 most popular.
	KeyZipf
	// KeyHotShift concentrates HotWeight of the traffic on a hot set
	// of HotFrac×Population keys whose base rotates every ShiftEvery —
	// the moving-working-set pattern that defeats static caching.
	KeyHotShift
)

// String names the distribution.
func (d KeyDist) String() string {
	switch d {
	case KeyUniform:
		return "uniform"
	case KeyZipf:
		return "zipf"
	case KeyHotShift:
		return "hotshift"
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
	// HotFrac is the hot-set share of the population (default 0.1).
	HotFrac float64
	// HotWeight is the traffic share the hot set absorbs (default 0.9).
	HotWeight float64
	// ShiftEvery is the hot-set rotation period (default 10ms).
	ShiftEvery netsim.Duration
}

func (c *KeyConfig) fill() {
	if c.Population <= 0 {
		c.Population = 256
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.HotFrac == 0 {
		c.HotFrac = 0.1
	}
	if c.HotWeight == 0 {
		c.HotWeight = 0.9
	}
	if c.ShiftEvery == 0 {
		c.ShiftEvery = 10 * netsim.Millisecond
	}
}

// keyPicker draws keys from the configured distribution. The Zipf CDF
// is precomputed so the hot path is one binary search, no allocation.
type keyPicker struct {
	cfg KeyConfig
	cdf []float64 // KeyZipf: cdf[k] = P(key <= k), cdf[n-1] == 1
	hot int       // KeyHotShift: hot-set size
}

func newKeyPicker(cfg KeyConfig) *keyPicker {
	cfg.fill()
	p := &keyPicker{cfg: cfg}
	switch cfg.Dist {
	case KeyZipf:
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
	case KeyHotShift:
		p.hot = int(cfg.HotFrac * float64(cfg.Population))
		if p.hot < 1 {
			p.hot = 1
		}
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

// Pick draws one key. now only matters for KeyHotShift.
func (k *Keys) Pick(now netsim.Time) int { return k.p.pick(k.rng, now) }

// pick draws one key; now drives the hot-set rotation.
func (p *keyPicker) pick(rng *rand.Rand, now netsim.Time) int {
	n := p.cfg.Population
	switch p.cfg.Dist {
	case KeyZipf:
		return sort.SearchFloat64s(p.cdf, rng.Float64())
	case KeyHotShift:
		base := (int(int64(now)/int64(p.cfg.ShiftEvery)) * p.hot) % n
		if rng.Float64() < p.cfg.HotWeight {
			return (base + rng.Intn(p.hot)) % n
		}
		return rng.Intn(n)
	default:
		return rng.Intn(n)
	}
}
