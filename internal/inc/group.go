package inc

import (
	"slices"

	"repro/internal/memproto"
	"repro/internal/wire"
)

// Multicast invalidation and ack aggregation. The controller installs
// sharer groups (id → member stations) into every switch's group table
// through the replicated control plane; member order is the bitmap
// order, so it matches the home's (both use the sorted sharer set).
// The home then invalidates a whole sharer set with ONE MsgIncInv
// frame naming the group, and each switch replicates it along the
// spanning tree toward the members it routes to. On the way back, the
// switch that claimed aggregation (the home's first hop) coalesces the
// members' MsgIncAck frames into one bitmap ack — and on timeout
// flushes only the acks it actually holds, so a dead sharer's ack is
// never fabricated.

// handleInv consumes a MsgIncInv frame: replicate it toward the
// group's members and, at the first aggregation-capable switch, claim
// the ack aggregation.
func (e *Engine) handleInv(ingress int, h *wire.Header, fr []byte) bool {
	opID, group, claimed, ok := memproto.DecodeIncInv(wire.Payload(fr))
	if !ok {
		return true // malformed; consume rather than mis-forward
	}
	if group == 0 {
		// Group 0 names no group: no home sends it, and a stray or
		// hostile one must not reach the unknown-group flood below.
		return true
	}

	members, known := e.dp.Group(group)
	// Replication is deferred past ingress (pipeline delay), so the
	// copies must not alias the ingress buffer — it is recycled when
	// ingress returns.
	out := append([]byte(nil), fr...)

	// Claim aggregation here if enabled, unclaimed, and we know the
	// membership (the bitmap needs it). The replicated copies carry
	// the claim so no downstream switch aggregates the same round.
	aggHere := e.cfg.AckAgg && !claimed && known &&
		len(members) > 0 && len(members) <= MaxGroupMembers
	if aggHere {
		wire.Payload(out)[memproto.IncInvClaimedOff] = 1
		key := aggKey{home: h.Src, op: opID}
		if _, dup := e.aggs[key]; !dup {
			e.aggs[key] = &aggState{
				obj:     h.Object,
				group:   group,
				members: members,
				mask:    (uint64(1) << uint(len(members))) - 1,
			}
			e.dp.ScheduleAfter(AggTimeout, func() { e.flushAgg(key) })
		}
	}

	// Replicate: one copy per egress port that routes to a member.
	// Ports equal to the ingress are skipped — members behind it were
	// already covered upstream (reverse-path forwarding on a tree).
	// An unknown group, or any member without a station route, degrades
	// to a flood.
	var ports []int
	for _, m := range members {
		port, ok := e.dp.StationPort(m)
		if !ok {
			known = false
			break
		}
		if port != ingress && !slices.Contains(ports, port) {
			ports = append(ports, port)
		}
	}
	if !known {
		e.counters.McastFloods++
		e.dp.FloodFrame(ingress, out)
		return true
	}
	slices.Sort(ports)
	for _, port := range ports {
		e.counters.McastReplicated++
		e.dp.EmitFrame(port, out)
	}
	return true
}

// handleAck absorbs a member's MsgIncAck into the aggregation this
// switch claimed; with no matching state the ack forwards to the home
// untouched.
func (e *Engine) handleAck(h *wire.Header, fr []byte) bool {
	opID, _, bitmap, ok := memproto.DecodeIncAck(wire.Payload(fr))
	if !ok {
		return false
	}
	key := aggKey{home: h.Dst, op: opID}
	st, exists := e.aggs[key]
	if !exists {
		return false
	}
	var bits uint64
	if bitmap != 0 {
		// Already an aggregate (a downstream partial flush): merge.
		bits = bitmap & st.mask
	} else {
		idx := -1
		for i, m := range st.members {
			if m == h.Src {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false // not a member's ack; forward
		}
		bits = uint64(1) << uint(idx)
	}
	if st.got|bits == st.got {
		return true // duplicate: absorb silently
	}
	st.got |= bits
	e.counters.AcksCoalesced++
	if st.got == st.mask {
		delete(e.aggs, key)
		e.emitAgg(key, st)
	}
	return true
}

// flushAgg is the timeout path: emit the bitmap of acks actually
// received — possibly none, in which case nothing is sent. Missing
// members stay missing; the home's own timeout detects them and
// falls back to per-sharer invalidation.
func (e *Engine) flushAgg(key aggKey) {
	st, ok := e.aggs[key]
	if !ok {
		return // completed before the timeout
	}
	delete(e.aggs, key)
	e.counters.AggTimeouts++
	if st.got != 0 {
		e.emitAgg(key, st)
	}
}

// emitAgg sends the aggregated ack toward the home.
func (e *Engine) emitAgg(key aggKey, st *aggState) {
	out := wire.Header{
		Type: wire.MsgIncAck, Src: e.dp.Station(), Dst: key.home,
		Object: st.obj, Seq: e.dp.NextReplySeq(),
	}
	frame, err := wire.Encode(&out, memproto.EncodeIncAck(key.op, st.group, st.got))
	if err != nil {
		return
	}
	if port, ok := e.dp.StationPort(key.home); ok {
		e.dp.EmitFrame(port, frame)
	} else {
		e.dp.FloodFrame(-1, frame)
	}
	e.counters.AggAcksSent++
}
