package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/future"
	"repro/internal/object"
	"repro/internal/oid"
)

// Workload data objects carry a 4-entry FOT, so nearly all of an
// object's bytes are payload; reads and writes land at the start of the
// heap, past header and FOT, where raw writes cannot clobber metadata.
const (
	dataFOTCap = 4
	ioOff      = object.HeaderSize + object.FOTEntrySize*dataFOTCap
	ioMean     = 64 // mean read/write length in bytes
	ioSpread   = 16 // each object's record length is ioMean ± ioSpread
	noopSymbol = "bench.noop"
)

// population is the bench-owned object set one workload drives. Every
// object holds a byte pattern derived from its index, and writes store
// that same pattern back, so every read is verifiable no matter how
// reads and writes interleave; digest pins the whole object for the
// acquire check.
//
// Each object has its own record length (and, for bulk objects, its own
// size) drawn from the seed. Records differ in size in any real store,
// and without it a closed loop on the simulator gives every op the same
// latency to the nanosecond whatever the seed.
type population struct {
	warm    []oid.ID
	cold    []oid.ID // never discovered; each cold op consumes one
	pattern [][]byte // per warm object: its record, the bytes at ioOff
	size    []int    // per warm object: total bytes
	digest  []uint64 // per warm object: FNV-1a of the full object
	code    object.Global
}

// populate builds warm (and cold) objects homed round-robin on the
// non-driver nodes and warms the driver's view of them. Under
// SchemeSharded the IDs come from NewIDHomedAt so the fabric's shard
// rules and the resolver agree on each home; workload.ClusterTarget
// adopts random IDs at round-robin homes, which the sharded scheme
// routes elsewhere (see README, "Findings").
func populate(cl *core.Cluster, s *spec, seed int64, cold int) (*population, error) {
	p := &population{}
	var err error
	cl.Exec(func() { err = p.build(cl, s, rand.New(rand.NewSource(seed)), cold) })
	if err != nil {
		return nil, err
	}
	return p, p.warmUp(cl)
}

func (p *population) build(cl *core.Cluster, s *spec, rng *rand.Rand, cold int) error {
	homes := cl.Nodes[1:]
	sharded := s.scheme == core.SchemeSharded
	newObj := func(i int) (*object.Object, error) {
		home := homes[i%len(homes)]
		id := cl.NewID()
		if sharded {
			var ok bool
			if id, ok = cl.NewIDHomedAt(home.Station); !ok {
				return nil, fmt.Errorf("station %d owns no shard", home.Station)
			}
		}
		o, err := object.New(id, s.objSize-s.sizeSpread+rng.Intn(2*s.sizeSpread+1), dataFOTCap)
		if err != nil {
			return nil, err
		}
		// Fill the whole heap, not just the I/O region, so a bulk
		// transfer that drops or reorders a fragment changes the digest.
		heap := o.Bytes()[ioOff:]
		for j := range heap {
			heap[j] = byte(i*131 + j*17 + 7)
		}
		if sharded {
			return o, home.AdoptObjectLite(o)
		}
		return o, home.AdoptObject(o)
	}
	for i := 0; i < s.objects; i++ {
		o, err := newObj(i)
		if err != nil {
			return err
		}
		p.warm = append(p.warm, o.ID())
		rec := ioMean - ioSpread + rng.Intn(2*ioSpread+1)
		p.pattern = append(p.pattern, append([]byte(nil), o.Bytes()[ioOff:ioOff+rec]...))
		p.size = append(p.size, o.Size())
		p.digest = append(p.digest, o.Checksum())
	}
	for i := 0; i < cold; i++ {
		o, err := newObj(s.objects + i)
		if err != nil {
			return err
		}
		p.cold = append(p.cold, o.ID())
	}
	if s.mix.InvokePct > 0 {
		codeObj, err := homes[0].CreateCodeObject(noopSymbol)
		if err != nil {
			return err
		}
		p.code = object.Global{Obj: codeObj.ID()}
		cl.RegisterAll(noopSymbol, func(ctx *core.ExecCtx) { ctx.Return(nil) })
	}
	return nil
}

// warmUp reads one byte of every warm object (and the code object) from
// the driver, so the measured phase starts with discovery caches full.
func (p *population) warmUp(cl *core.Cluster) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ids := p.warm
	if !p.code.IsNil() {
		ids = append(append([]oid.ID(nil), ids...), p.code.Obj)
	}
	// A few at a time: thousands of simultaneous first-touch broadcasts
	// on a 100 Mb/s fabric would outlast the discovery timeout.
	const batch = 16
	fs := make([]*future.Future[[]byte], 0, batch)
	for lo := 0; lo < len(ids); lo += batch {
		hi := min(lo+batch, len(ids))
		fs = fs[:0]
		cl.Exec(func() {
			for _, id := range ids[lo:hi] {
				fs = append(fs, cl.Node(0).Coherence.ReadAt(id, ioOff, 1))
			}
		})
		for i, f := range fs {
			if _, err := core.Await(ctx, cl, f); err != nil {
				return fmt.Errorf("warm read %d: %w", lo+i, err)
			}
		}
	}
	// Let trailing acks land so the measured phase starts quiet and
	// dataplane.LiveBufs() rests at its baseline.
	if cl.Sim != nil {
		cl.Run()
	} else {
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
