// Package inc implements in-network computation (INC): application
// work that runs inside the switch pipeline once the fabric routes on
// object identity (§5; NetRPC and NetChain in PAPERS.md). Its programs
// are p4sim.IncPrograms, and any number of them compose on one switch
// in attachment order. An Engine runs two computations, both in
// group.go:
//
//  1. multicast invalidation, replicating one group invalidate along
//     the spanning tree from the switch's group table;
//  2. ack aggregation, coalescing the sharers' acks into one bitmap ack
//     and never fabricating a dead sharer's.
//
// Programs reach frames and time only through the Dataplane interface
// and backend types, so checkseam covers the package like the protocol
// packages.
package inc

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/wire"
)

// Engine constants.
const (
	// AggTimeout bounds how long an aggregation waits for stragglers
	// before flushing the acks it really holds.
	AggTimeout = 500 * backend.Microsecond
	// MaxGroupMembers bounds a multicast group (the ack bitmap is one
	// 64-bit register).
	MaxGroupMembers = 64
)

// Config gates the engine's two computations. The zero value
// disables everything: no engine is built, no switch gets a station
// identity, and runs are bit-identical to a build without INC.
type Config struct {
	// Mcast replicates one group invalidate along the spanning tree
	// instead of per-sharer unicasts. It needs a control plane to
	// install the group tables.
	Mcast bool
	// AckAgg coalesces invalidate-acks into one bitmap ack at the
	// switch nearest the home. It needs Mcast.
	AckAgg bool
}

// Enabled reports whether any computation is on: AckAgg needs Mcast
// (Validate), so Mcast alone decides.
func (c Config) Enabled() bool { return c.Mcast }

// Validate refuses a combination that could only do nothing.
func (c Config) Validate() error {
	if c.AckAgg && !c.Mcast {
		return fmt.Errorf("inc: AckAgg needs Mcast: without a group invalidate no sharer sends an ack to aggregate")
	}
	return nil
}

// Counters aggregates one engine's statistics. Registered under the
// "inc" telemetry prefix (inc.mcast_replicated, inc.acks_coalesced, ...).
type Counters struct {
	McastReplicated uint64 // invalidate copies emitted from the group table
	McastFloods     uint64 // unknown-group flood fallbacks
	AcksCoalesced   uint64 // acks absorbed into an aggregate
	AggAcksSent     uint64 // aggregated acks emitted
	AggTimeouts     uint64 // aggregations flushed by timeout
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

// Engine is one switch's multicast and aggregation program.
type Engine struct {
	cfg  Config
	dp   Dataplane
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
	return &Engine{cfg: cfg, dp: dp, aggs: make(map[aggKey]*aggState)}, nil
}

// Counters returns a copy of the statistics.
func (e *Engine) Counters() Counters { return e.counters }

// HandleFrame implements p4sim.IncProgram: dispatch on the message type
// to the enabled computation (every engine has Mcast). Returning false
// offers the frame to the next program and then the normal pipeline.
func (e *Engine) HandleFrame(ingress int, h *wire.Header, fr backend.Frame) bool {
	switch h.Type {
	case wire.MsgIncInv:
		return e.handleInv(ingress, h, fr)
	case wire.MsgIncAck:
		return e.cfg.AckAgg && e.handleAck(h, fr)
	}
	return false
}
