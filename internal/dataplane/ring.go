package dataplane

import (
	"repro/internal/backend"
	"repro/internal/wire"
)

// This file is the same-host fast path: co-located nodes exchange
// frames through SPSC rings of refcounted Bufs instead of the full
// network stack — the shared-memory-queue idea from "Telepathic
// Datacenters", expressed over the exact Buf ownership rules the rest
// of the dataplane already obeys.
//
// Concurrency model: rings have no locks or atomics. Both backends
// already serialize everything that touches them — netsim because the
// whole simulation is one goroutine, realnet because the nodes of one
// ring group are one process (realnet.Cluster.NewLinkBeside), so their
// upcalls, timers and Exec bodies all run under that process's one
// upcall lock — so an SPSC ring here is plain single-threaded code. The
// conformance suite runs the ring under -race to keep that claim honest.

// RingDefaultSlots is the capacity of each directed ring in a RingGroup.
const RingDefaultSlots = 1024

// Ring is a bounded FIFO queue of in-flight frames between one
// producer and one consumer. A pushed frame's buffer reference is
// owned by the ring until the consumer releases it after delivery;
// a push that finds the ring full fails and the producer must count
// and release the frame (same contract as a dropped link frame).
type Ring struct {
	slots []ringSlot
	head  int // next pop
	tail  int // next push
	n     int
}

type ringSlot struct {
	fr  backend.Frame
	buf backend.FrameBuffer
}

// NewRing creates a ring with the given capacity (RingDefaultSlots
// when slots <= 0).
func NewRing(slots int) *Ring {
	if slots <= 0 {
		slots = RingDefaultSlots
	}
	return &Ring{slots: make([]ringSlot, slots)}
}

// Push enqueues a frame, taking ownership of one buf reference.
// It reports false (without taking ownership) when the ring is full.
func (r *Ring) Push(fr backend.Frame, buf backend.FrameBuffer) bool {
	if r.n == len(r.slots) {
		return false
	}
	r.slots[r.tail] = ringSlot{fr: fr, buf: buf}
	r.tail++
	if r.tail == len(r.slots) {
		r.tail = 0
	}
	r.n++
	return true
}

// Pop dequeues the oldest frame. The caller assumes the ring's buffer
// reference and must Release it after the frame is consumed.
func (r *Ring) Pop() (backend.Frame, backend.FrameBuffer, bool) {
	if r.n == 0 {
		return nil, nil, false
	}
	s := r.slots[r.head]
	r.slots[r.head] = ringSlot{}
	r.head++
	if r.head == len(r.slots) {
		r.head = 0
	}
	r.n--
	return s.fr, s.buf, true
}

// Len reports the number of queued frames.
func (r *Ring) Len() int { return r.n }

// RingStats counts one RingLink's same-host traffic.
type RingStats struct {
	// RingSent counts frames that took the ring instead of the fabric.
	RingSent uint64
	// RingDelivered counts frames handed to this link's upcall from
	// its inbound rings.
	RingDelivered uint64
	// RingDroppedFull counts frames lost to a full ring.
	RingDroppedFull uint64
}

// RingGroup is a set of co-located stations whose mutual traffic
// bypasses the network through directed SPSC rings. Build one group
// per host ("co-residence domain"), then wrap each member's Link with
// Join before binding the transport endpoint to it.
type RingGroup struct {
	// delay is the modeled doorbell latency between a push and the
	// consumer's drain (0 = next scheduling instant). Under netsim
	// this is the simulated cost of the same-host handoff; under
	// realnet it should stay 0.
	delay   backend.Duration
	members map[wire.StationID]*RingLink
}

// NewRingGroup creates an empty co-residence group with the given
// doorbell delay.
func NewRingGroup(delay backend.Duration) *RingGroup {
	return &RingGroup{delay: delay, members: make(map[wire.StationID]*RingLink)}
}

// Join wraps inner as a ring-accelerated link for station st and adds
// it to the group. Frames addressed to another member travel through
// a directed ring; everything else — broadcasts, OID-routed frames,
// remote stations — uses inner unchanged.
func (g *RingGroup) Join(st wire.StationID, inner backend.Link) *RingLink {
	l := &RingLink{inner: inner, st: st, group: g}
	l.drainFn = l.drain
	g.members[st] = l
	return l
}

// RingLink is one member's view of a RingGroup: a backend.Link that
// short-circuits same-group traffic. One drain delivers every queued
// frame — the ring counterpart of doorbell-coalesced delivery.
type RingLink struct {
	inner backend.Link
	st    wire.StationID
	group *RingGroup

	// tx holds the directed ring to each peer this link has sent to
	// (lazily created; SPSC because only this link pushes to it).
	tx map[wire.StationID]*Ring
	// rx holds inbound rings in the order their producers first
	// appeared — drains walk them in this stable order.
	rx []*Ring

	onFrame    func(fr backend.Frame)
	drainArmed bool
	drainFn    func()
	stats      RingStats
}

// Stats returns a copy of the link's ring counters.
func (l *RingLink) Stats() RingStats { return l.stats }

// SendBuf implements backend.Link: same-group unicast frames are
// pushed onto the peer's inbound ring (full ring = counted drop,
// exactly a lossy link); everything else goes out the inner link.
func (l *RingLink) SendBuf(fr backend.Frame, buf backend.FrameBuffer) {
	if dst, ok := wire.PeekDst(fr); ok && dst != wire.StationBroadcast && dst != wire.StationAny && dst != l.st {
		if peer, ok := l.group.members[dst]; ok {
			r := l.tx[dst]
			if r == nil {
				r = NewRing(RingDefaultSlots)
				if l.tx == nil {
					l.tx = make(map[wire.StationID]*Ring)
				}
				l.tx[dst] = r
				peer.rx = append(peer.rx, r)
			}
			if !r.Push(fr, buf) {
				l.stats.RingDroppedFull++
				if buf != nil {
					buf.Release()
				}
				return
			}
			l.stats.RingSent++
			peer.armDrain()
			return
		}
	}
	l.inner.SendBuf(fr, buf)
}

// armDrain schedules one drain on the consumer's clock if none is
// pending — the doorbell: N pushes, one wakeup.
func (l *RingLink) armDrain() {
	if l.drainArmed {
		return
	}
	l.drainArmed = true
	l.inner.Clock().Schedule(l.group.delay, l.drainFn)
}

// drain empties every inbound ring, one upcall per frame. A frame's
// ring reference is released when its own upcall returns — the same
// borrow rule as fabric delivery.
func (l *RingLink) drain() {
	l.drainArmed = false
	for _, r := range l.rx {
		for {
			fr, buf, ok := r.Pop()
			if !ok {
				break
			}
			l.stats.RingDelivered++
			if l.onFrame != nil {
				l.onFrame(fr)
			}
			if buf != nil {
				buf.Release()
			}
		}
	}
}

// SetOnFrame implements backend.Link: the upcall serves both ring
// deliveries and inner-link arrivals.
func (l *RingLink) SetOnFrame(fn func(fr backend.Frame)) {
	l.onFrame = fn
	l.inner.SetOnFrame(fn)
}

// Clock implements backend.Link.
func (l *RingLink) Clock() backend.Clock { return l.inner.Clock() }

// Exec implements backend.Link.
func (l *RingLink) Exec(fn func()) { l.inner.Exec(fn) }

// MTU implements backend.Link. Ring frames never fragment differently
// from fabric frames: the inner link's MTU governs both paths, so a
// transfer's fragment sizing is independent of co-residence.
func (l *RingLink) MTU() int { return l.inner.MTU() }
