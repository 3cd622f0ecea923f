package coherence

import (
	"sort"

	"repro/internal/backend"
	"repro/internal/memproto"
	"repro/internal/oid"
	"repro/internal/wire"
)

// Home-side support for in-network computation (internal/inc): the
// home invalidates a whole sharer set with one multicast frame the
// switches replicate, absorbs (possibly switch-aggregated) acks, and
// falls back to the classic per-sharer reliable invalidate for any
// member whose ack never arrives — a dead sharer is detected, never
// papered over.

// GroupInstaller installs a multicast group on the fabric — the
// control-plane round trip (implemented by discovery.ControllerClient
// through the replicated ControlPlane).
type GroupInstaller interface {
	InstallGroup(id uint64, members []wire.StationID, cb func(error))
}

// IncConfig enables the home-side INC paths. The zero value disables
// everything (bit-identical to a build without INC).
type IncConfig struct {
	// Installer performs group installation. When set, a home sends
	// one group invalidate instead of per-sharer requests (sharer sets
	// of ≤1 use the classic path); nil disables multicast.
	Installer GroupInstaller
}

const (
	// incAckTimeout is how long the home waits for (aggregated) acks
	// before falling back per sharer — past the switch aggregation
	// timeout plus a fabric round trip.
	incAckTimeout = 2 * backend.Millisecond
	// incMaxGroup caps multicast group size at the ack bitmap width;
	// larger sharer sets use the classic path.
	incMaxGroup = 64
)

// IncCounters aggregates the home-side INC statistics (kept apart
// from Counters so INC-off telemetry snapshots are unchanged).
type IncCounters struct {
	McastInvSent        uint64 // multicast invalidate frames emitted
	McastFramesSaved    uint64 // per-sharer frames a multicast replaced
	McastAcksRecv       uint64 // acks (aggregated or direct) absorbed
	McastTimeouts       uint64 // rounds that hit the ack timeout
	FallbackInvalidates uint64 // per-sharer retries after a timeout
	GroupsInstalled     uint64 // multicast groups installed
}

// incPending is one in-flight multicast invalidation round.
type incPending struct {
	obj     oid.ID
	members []wire.StationID // sorted; bitmap order
	epochs  []uint64
	acked   []bool
	left    int
	timer   backend.Timer
}

// incGroup is one installed (or installing) multicast group.
type incGroup struct {
	id         uint64
	ready      bool
	installing bool
	waiters    []func(uint64, bool)
}

// SetIncConfig enables the home-side INC paths. Call before traffic;
// a zero config turns them back off.
func (n *Node) SetIncConfig(cfg IncConfig) {
	n.incCfg = cfg
	if n.incGroups == nil {
		n.incGroups = make(map[string]*incGroup)
		n.incOps = make(map[uint64]*incPending)
	}
}

// IncCounters returns a copy of the home-side INC statistics.
func (n *Node) IncCounters() IncCounters { return n.incCounters }

// HandleIncFrame consumes MsgIncInv (sharer side) and MsgIncAck
// (home side) frames; register it on the endpoint mux for both types.
func (n *Node) HandleIncFrame(h *wire.Header, payload []byte) bool {
	switch h.Type {
	case wire.MsgIncInv:
		n.serveIncInv(h, payload)
		return true
	case wire.MsgIncAck:
		n.absorbIncAck(h, payload)
		return true
	}
	return false
}

// serveIncInv applies a replicated multicast invalidate at a sharer:
// identical semantics to OpInvalidate, answered with an unreliable
// MsgIncAck the fabric may coalesce.
func (n *Node) serveIncInv(h *wire.Header, payload []byte) {
	opID, group, _, ok := memproto.DecodeIncInv(payload)
	if !ok || group == 0 {
		return // group 0 names no group: nothing to invalidate
	}
	n.dropCopy(h, opID)
	n.ep.Send(wire.Header{Type: wire.MsgIncAck, Dst: h.Src, Object: h.Object},
		memproto.EncodeIncAck(opID, group, 0))
}

// absorbIncAck marks members of a pending round acked — one member
// (the frame's Src) for a direct ack, several for a switch-aggregated
// bitmap — and removes them from the directory.
func (n *Node) absorbIncAck(h *wire.Header, payload []byte) {
	opID, _, bitmap, ok := memproto.DecodeIncAck(payload)
	if !ok {
		return
	}
	p, live := n.incOps[opID]
	if !live {
		return // late ack past the timeout; the fallback path owns it
	}
	n.incCounters.McastAcksRecv++
	mark := func(i int) {
		if p.acked[i] {
			return
		}
		p.acked[i] = true
		p.left--
		n.directory.Remove(p.obj, p.members[i], p.epochs[i])
	}
	if bitmap == 0 {
		for i, m := range p.members {
			if m == h.Src {
				mark(i)
				break
			}
		}
	} else {
		for i := range p.members {
			if bitmap&(uint64(1)<<uint(i)) != 0 {
				mark(i)
			}
		}
	}
	if p.left == 0 {
		if p.timer != nil {
			p.timer.Stop()
		}
		delete(n.incOps, opID)
	}
}

// mcastInvalidate runs one multicast invalidation round: ensure the
// sharer group is installed, emit one MsgIncInv, and arm the ack
// timeout. Installation failure degrades to the classic path. The
// round's id op is a tick of the directory's epoch clock taken when the
// members were read, so it is also the one frame's epoch: newer than
// every member's registration, older than any grant served after.
func (n *Node) mcastInvalidate(obj oid.ID, members []wire.StationID, epochs []uint64, op uint64) {
	n.ensureGroup(members, func(gid uint64, ok bool) {
		if !ok {
			for i, st := range members {
				n.classicInvalidate(obj, st, epochs[i])
			}
			return
		}
		n.counters.InvalidatesSent++
		n.incCounters.McastInvSent++
		n.incCounters.McastFramesSaved += uint64(len(members) - 1)
		p := &incPending{
			obj: obj, members: members, epochs: epochs,
			acked: make([]bool, len(members)), left: len(members),
		}
		n.incOps[op] = p
		p.timer = n.clock.AfterFunc(incAckTimeout, func() { n.incTimeout(op) })
		n.ep.Send(wire.Header{Type: wire.MsgIncInv, Dst: wire.StationAny, Object: obj},
			memproto.EncodeIncInv(op, gid, false))
	})
}

// incTimeout is the loss-detection path: any member whose ack (direct
// or aggregated) never arrived gets the classic reliable per-sharer
// invalidate. An aggregation switch never fabricates a missing ack,
// so a crashed sharer always lands here.
func (n *Node) incTimeout(op uint64) {
	p, live := n.incOps[op]
	if !live {
		return
	}
	delete(n.incOps, op)
	n.incCounters.McastTimeouts++
	for i, st := range p.members {
		if p.acked[i] {
			continue
		}
		n.incCounters.FallbackInvalidates++
		n.classicInvalidate(p.obj, st, p.epochs[i])
	}
}

// ensureGroup resolves the sorted member set to an installed group
// id, installing through the control plane on first use. Concurrent
// callers for the same set coalesce onto one installation.
func (n *Node) ensureGroup(members []wire.StationID, cb func(uint64, bool)) {
	key := groupKey(members)
	g, ok := n.incGroups[key]
	if ok && g.ready {
		cb(g.id, true)
		return
	}
	if ok && g.installing {
		g.waiters = append(g.waiters, cb)
		return
	}
	if !ok {
		n.incNextGroup++
		// Station-scoped id space: homes allocate independently.
		g = &incGroup{id: uint64(n.ep.Station())<<20 | n.incNextGroup}
		n.incGroups[key] = g
	}
	g.installing = true
	g.waiters = append(g.waiters, cb)
	n.incCfg.Installer.InstallGroup(g.id, members, func(err error) {
		g.installing = false
		ws := g.waiters
		g.waiters = nil
		if err != nil {
			delete(n.incGroups, key) // retry on the next round
			for _, w := range ws {
				w(0, false)
			}
			return
		}
		g.ready = true
		n.incCounters.GroupsInstalled++
		for _, w := range ws {
			w(g.id, true)
		}
	})
}

// groupKey canonicalizes a sorted member set.
func groupKey(members []wire.StationID) string {
	b := make([]byte, 0, len(members)*8)
	for _, m := range members {
		v := uint64(m)
		b = append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}

// sortMembers orders (station, epoch) pairs by station — the
// canonical group order both the home's bitmap and the switches'
// installed membership use.
func sortMembers(members []wire.StationID, epochs []uint64) {
	idx := make([]int, len(members))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return members[idx[a]] < members[idx[b]] })
	ms := make([]wire.StationID, len(members))
	es := make([]uint64, len(epochs))
	for i, j := range idx {
		ms[i] = members[j]
		es[i] = epochs[j]
	}
	copy(members, ms)
	copy(epochs, es)
}
