// Package inc implements in-network computation (INC): application
// work that runs inside the switch pipeline once the fabric routes on
// object identity (§5; NetRPC and NetChain in PAPERS.md). Three
// switch-resident computations, each independently gated:
//
//  1. an in-switch object cache — hot read-only bytes parked in switch
//     register state behind a match-action table (capacity model and
//     LRU eviction shared with the table machinery), serving
//     ReadAt requests in the fabric before they reach the home;
//  2. multicast invalidation — the coherence home emits ONE invalidate
//     frame naming a controller-installed sharer group, and switches
//     replicate it along the spanning tree;
//  3. ack aggregation — the switch nearest the home coalesces the
//     sharers' invalidate-acks into one bitmap ack, with an explicit
//     timeout/flush so a dead sharer's missing ack is never fabricated.
//
// The engine attaches to a switch as a p4sim.IncProgram. Frame
// classification goes through the pubsub compiler: the three INC
// dispositions are subscriptions compiled into a private match-action
// filter table, exactly like application packet subscriptions.
//
// The package sits below the backend seam boundary only through the
// p4sim dataplane interface — it reaches frames and time exclusively
// through backend types, so checkseam covers it like the protocol
// packages.
package inc

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/pubsub"
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

// Config gates the three computations. The zero value disables
// everything.
type Config struct {
	// Cache enables the in-switch object cache.
	Cache bool
	// Mcast enables group-table replication of MsgIncInv frames.
	Mcast bool
	// AckAgg enables invalidate-ack aggregation.
	AckAgg bool
}

// Enabled reports whether any computation is on.
func (c Config) Enabled() bool { return c.Cache || c.Mcast || c.AckAgg }

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

// Dataplane is what the engine needs from its switch. *p4sim.Switch
// implements it (netsim's Frame and Duration alias the backend types).
type Dataplane interface {
	Station() wire.StationID
	NextReplySeq() uint64
	EmitFrame(port int, fr backend.Frame)
	FloodFrame(skip int, fr backend.Frame)
	StationPort(st wire.StationID) (int, bool)
	ScheduleAfter(d backend.Duration, fn func())
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

// Engine is one switch's INC program.
type Engine struct {
	cfg Config
	dp  Dataplane

	// classifier is the compiled pubsub filter table dispatching
	// frames to the three computations.
	classifier *p4sim.Table

	// cacheTable carries the capacity/eviction model; lines is the
	// register file it fronts (kept in sync via OnEvict).
	cacheTable *p4sim.Table
	lines      map[oid.ID]*cacheLine
	shadow     map[oid.ID]uint64
	shadowSeq  uint64

	groups map[uint64][]wire.StationID
	aggs   map[aggKey]*aggState

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
		groups: make(map[uint64][]wire.StationID),
		aggs:   make(map[aggKey]*aggState),
	}

	// Classification through the pubsub compiler: each enabled
	// computation is a subscription on the message type, compiled into
	// a private prioritized ternary table.
	ps := pubsub.NewEngine()
	if cfg.Cache {
		if _, err := ps.Subscribe(pubsub.EqType(wire.MsgMem),
			p4sim.Action{Type: p4sim.ActIncCache}); err != nil {
			return nil, err
		}
	}
	if cfg.Cache || cfg.Mcast {
		// Cache-only switches still consume MsgIncInv: a group-0 frame
		// is the home's cache purge.
		if _, err := ps.Subscribe(pubsub.EqType(wire.MsgIncInv),
			p4sim.Action{Type: p4sim.ActIncGroup}); err != nil {
			return nil, err
		}
	}
	if cfg.AckAgg {
		if _, err := ps.Subscribe(pubsub.EqType(wire.MsgIncAck),
			p4sim.Action{Type: p4sim.ActIncAgg}); err != nil {
			return nil, err
		}
	}
	ft, err := pubsub.NewFilterTable(name+"/inc", p4sim.TableConfig{MemoryBytes: -1})
	if err != nil {
		return nil, err
	}
	if err := ps.CompileTo(ft); err != nil {
		return nil, err
	}
	e.classifier = ft

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

// HandleFrame implements p4sim.IncProgram: classify through the
// compiled filter table, then run the matched computation. Returning
// false forwards the frame through the normal pipeline.
func (e *Engine) HandleFrame(ingress int, h *wire.Header, fr backend.Frame) bool {
	act, ok := e.classifier.Lookup(h)
	if !ok {
		return false
	}
	switch act.Type {
	case p4sim.ActIncCache:
		return e.handleMem(ingress, h, fr)
	case p4sim.ActIncGroup:
		return e.handleInv(ingress, h, fr)
	case p4sim.ActIncAgg:
		return e.handleAck(h, fr)
	}
	return false
}
