// Package inc implements in-network computation (INC): application
// work that runs inside the switch pipeline once the fabric routes on
// object identity (§5; NetRPC and NetChain in PAPERS.md). Its programs
// are p4sim.IncPrograms, and any number of them compose on one switch
// in attachment order. An Engine runs three independently gated
// computations:
//
//  1. an in-switch object cache serving small hot reads at the home's
//     first hop (cache.go);
//  2. multicast invalidation, replicating one group invalidate along
//     the spanning tree from the switch's group table (group.go);
//  3. ack aggregation, coalescing the sharers' acks into one bitmap ack
//     and never fabricating a dead sharer's (group.go).
//
// Programs reach frames and time only through the Dataplane interface
// and backend types, so checkseam covers the package like the protocol
// packages.
package inc

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// Engine constants.
const (
	// CacheMemory is the register SRAM budget for the cache table
	// (64 KiB — a small slice of the 30 MiB table budget). The table
	// recycles LRU: a cache must evict.
	CacheMemory = 64 << 10
	// CacheLine caps the bytes cached per object: register state is
	// word-addressed and scarce, so only small hot objects (locks,
	// counters, headers) are cacheable.
	CacheLine = 512
	// CacheShadow is how long an object stays non-cacheable after the
	// switch observes a mutation — long enough for any stale read
	// response already in flight from the home to drain, so it cannot
	// re-seed the cache with pre-write bytes.
	CacheShadow = backend.Millisecond
	// AggTimeout bounds how long an aggregation waits for stragglers
	// before flushing the acks it really holds.
	AggTimeout = 500 * backend.Microsecond
	// MaxGroupMembers bounds a multicast group (the ack bitmap is one
	// 64-bit register).
	MaxGroupMembers = 64
)

// Config gates the engine's three computations. The zero value
// disables everything: no engine is built, no switch gets a station
// identity, and runs are bit-identical to a build without INC.
type Config struct {
	// Cache parks hot objects' bytes in switch register state and
	// serves reads at the first hop.
	Cache bool
	// Mcast replicates one group invalidate along the spanning tree
	// instead of per-sharer unicasts. It needs a control plane to
	// install the group tables.
	Mcast bool
	// AckAgg coalesces invalidate-acks into one bitmap ack at the
	// switch nearest the home. It needs Mcast.
	AckAgg bool
}

// Enabled reports whether any computation is on.
func (c Config) Enabled() bool { return c.Cache || c.Mcast || c.AckAgg }

// Validate refuses a combination that could only do nothing.
func (c Config) Validate() error {
	if c.AckAgg && !c.Mcast {
		return fmt.Errorf("inc: AckAgg needs Mcast: without a group invalidate no sharer sends an ack to aggregate")
	}
	return nil
}

// Counters aggregates one engine's statistics. Registered under the
// "inc" telemetry prefix (inc.cache_hits, inc.acks_coalesced, ...).
type Counters struct {
	CacheHits        uint64 // reads served from the switch
	CacheMisses      uint64 // reads inspected but not servable
	CacheInserts     uint64 // lines learned from read responses
	CacheInvalidates uint64 // lines dropped on observed mutations
	CacheEvictions   uint64 // lines recycled by the capacity policy
	McastReplicated  uint64 // invalidate copies emitted from the group table
	McastFloods      uint64 // unknown-group flood fallbacks
	AcksCoalesced    uint64 // acks absorbed into an aggregate
	AggAcksSent      uint64 // aggregated acks emitted
	AggTimeouts      uint64 // aggregations flushed by timeout
}

// Dataplane is what a program needs from its switch. *p4sim.Switch
// implements it (netsim's Frame and Duration alias the backend types).
type Dataplane interface {
	Station() wire.StationID
	NextReplySeq() uint64
	EmitFrame(port int, fr backend.Frame)
	FloodFrame(skip int, fr backend.Frame)
	StationPort(st wire.StationID) (int, bool)
	ScheduleAfter(d backend.Duration, fn func())
	Group(id uint64) ([]wire.StationID, bool)
}

// replyFrame encodes a switch-originated answer to the request h: out
// carries the answer's type, flags and object, and the switch fills in
// its own station as the source, the requester as the destination, a
// fresh sequence number and the ack of h.
func replyFrame(dp Dataplane, h *wire.Header, out wire.Header, payload []byte) (backend.Frame, error) {
	out.Src, out.Dst = dp.Station(), h.Src
	out.Seq, out.Ack = dp.NextReplySeq(), h.Seq
	return wire.Encode(&out, payload)
}

// cacheLine is the register state behind one cache-table entry.
type cacheLine struct {
	home    wire.StationID // station the bytes came from; serve only its reads
	off     uint64
	version uint64
	data    []byte
}

// aggKey identifies one home's invalidation round.
type aggKey struct {
	home wire.StationID
	op   uint64
}

// aggState is one in-progress ack aggregation.
type aggState struct {
	obj     oid.ID
	group   uint64
	members []wire.StationID
	got     uint64 // bitmap of member acks actually received
	mask    uint64 // bitmap of all members
}

// Engine is one switch's cache, multicast and aggregation program.
type Engine struct {
	cfg Config
	dp  Dataplane

	// cacheTable carries the capacity/eviction model; lines is the
	// register file it fronts (kept in sync via OnEvict).
	cacheTable *p4sim.Table
	lines      map[oid.ID]*cacheLine
	shadow     map[oid.ID]uint64
	shadowSeq  uint64

	aggs map[aggKey]*aggState

	counters Counters
}

// New builds an engine for a switch dataplane. At least one
// computation must be enabled, and the dataplane must have a station
// identity (the engine originates frames).
func New(name string, dp Dataplane, cfg Config) (*Engine, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("inc: no computation enabled")
	}
	if dp.Station() == 0 {
		return nil, fmt.Errorf("inc: %s needs a station identity to originate frames", name)
	}
	e := &Engine{
		cfg:    cfg,
		dp:     dp,
		lines:  make(map[oid.ID]*cacheLine),
		shadow: make(map[oid.ID]uint64),
		aggs:   make(map[aggKey]*aggState),
	}
	if cfg.Cache {
		ct, err := p4sim.NewTable(name+"/inc-cache",
			[]p4sim.Key{{Field: wire.FieldObject, Kind: p4sim.MatchExact}},
			p4sim.TableConfig{MemoryBytes: CacheMemory, Eviction: p4sim.EvictLRU})
		if err != nil {
			return nil, err
		}
		ct.SetOnEvict(func(v *p4sim.Entry) {
			delete(e.lines, v.Match[0].Value.AsID())
			e.counters.CacheEvictions++
		})
		e.cacheTable = ct
	}
	return e, nil
}

// Counters returns a copy of the statistics.
func (e *Engine) Counters() Counters { return e.counters }

// CoupleObjectTable ties a forwarding table's evictions to the cache:
// when a rule for an object is recycled, the cached line goes with it
// (and the object is shadowed), so a cached object whose forwarding
// rule vanished can never serve a stale read.
func (e *Engine) CoupleObjectTable(t *p4sim.Table) {
	t.SetOnEvict(func(v *p4sim.Entry) {
		e.invalidate(v.Match[0].Value.AsID())
	})
}

// HandleFrame implements p4sim.IncProgram: dispatch on the message type
// to the enabled computation. Returning false offers the frame to the
// next program and then the normal pipeline.
func (e *Engine) HandleFrame(ingress int, h *wire.Header, fr backend.Frame) bool {
	switch h.Type {
	case wire.MsgMem:
		return e.cfg.Cache && e.handleMem(ingress, h, fr)
	case wire.MsgIncInv:
		// Cache-only switches still consume MsgIncInv: a group-0 frame
		// is the home's cache purge.
		return (e.cfg.Cache || e.cfg.Mcast) && e.handleInv(ingress, h, fr)
	case wire.MsgIncAck:
		return e.cfg.AckAgg && e.handleAck(h, fr)
	}
	return false
}
