package workload

import (
	"math/rand"

	"repro/internal/netsim"
)

// Gen deterministically generates the operation schedule: kind, cold
// flag, and key for each op, from its own seeded source. The same
// seed and config always yield the same sequence, and Next allocates
// nothing, so generation cost never perturbs a measurement.
type Gen struct {
	rng   *rand.Rand
	mix   Mix
	total int
	cum   [3]int // read / +write / +acquire-release thresholds
	keys  *keyPicker
	next  uint64
}

// NewGen builds a generator from a seed, mix, and key model.
func NewGen(seed int64, mix Mix, keys KeyConfig) *Gen {
	mix.fill()
	g := &Gen{
		rng:  rand.New(rand.NewSource(seed)),
		mix:  mix,
		keys: newKeyPicker(keys),
	}
	g.cum[0] = mix.ReadPct
	g.cum[1] = g.cum[0] + mix.WritePct
	g.cum[2] = g.cum[1] + mix.AcquireReleasePct
	g.total = g.cum[2] + mix.InvokePct
	return g
}

// Rand exposes the generator's random source (the runner draws
// arrival gaps from it, keeping the whole schedule on one stream).
func (g *Gen) Rand() *rand.Rand { return g.rng }

// Next generates the op intended to start at the given time.
func (g *Gen) Next(intended netsim.Time) Op {
	op := Op{Index: g.next, Intended: intended}
	g.next++
	r := g.rng.Intn(g.total)
	switch {
	case r < g.cum[0]:
		op.Kind = OpRead
	case r < g.cum[1]:
		op.Kind = OpWrite
	case r < g.cum[2]:
		op.Kind = OpAcquireRelease
	default:
		op.Kind = OpInvoke
	}
	if g.mix.ColdFrac > 0 && g.rng.Float64() < g.mix.ColdFrac {
		op.Cold = true
	}
	op.Key = g.keys.pick(g.rng)
	return op
}
