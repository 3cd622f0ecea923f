// Package netsim is a deterministic discrete-event network simulator.
//
// It stands in for the paper's Mininet emulation (§4): hosts and
// switches are devices joined by links with propagation latency,
// transmission bandwidth, queueing, and optional loss. All timing runs
// on a virtual clock, so experiments are exactly reproducible from a
// seed and the figures' round-trip arithmetic is exact rather than
// subject to emulation noise.
package netsim

import (
	"math/rand"

	"repro/internal/backend"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
// It is an alias for the backend seam's Time so values flow across
// the interface without conversion.
type Time = backend.Time

// Duration is a span of virtual time in nanoseconds (alias of the
// backend seam's Duration).
type Duration = backend.Duration

// Convenient duration units, re-exported from the backend seam.
const (
	Nanosecond  = backend.Nanosecond
	Microsecond = backend.Microsecond
	Millisecond = backend.Millisecond
	Second      = backend.Second
)

// event is the payload of one queued occurrence. The two hot-path
// event kinds of the frame pipeline (delivery to a device, delayed
// transmission out of a device) are represented inline instead of as
// closures, so the steady-state event flow allocates nothing.
type event struct {
	fn func() // nil for inline frame events

	// daemon marks background housekeeping (e.g. consensus heartbeat
	// and election timers) that perpetually re-arms itself: Run treats
	// a queue holding only daemon events as drained, so foreground
	// workloads still run to completion. Daemon events fire normally
	// whenever foreground work keeps the clock advancing.
	daemon bool

	// Inline frame event: evDeliver and evSend carry their frame (see
	// frameArgs), evDeliverBatch fires a coalesced per-(device, tick)
	// delivery batch through net.
	kind uint8
	frameArgs

	// Inline timer event (evTimer): fires tmr. Stop and Reset take the
	// queued firing out of the heap, so one that pops is always current.
	tmr *Timer

	// Inline batch event (evDeliverBatch).
	batch *deliveryBatch
}

// frameArgs is a frame event's payload: evDeliver hands fr to att's
// device on port, evSend transmits fr out of att's port.
type frameArgs struct {
	net  *Network
	att  *Attachment
	port int
	fr   Frame
	buf  FrameBuffer
}

// run fires the frame event of kind evSend or evDeliver.
func (f *frameArgs) run(kind uint8) {
	if kind == evSend {
		f.net.SendBuf(f.att, f.port, f.fr, f.buf)
	} else {
		f.net.deliver(f.att, f.port, f.fr, f.buf)
	}
}

// A lane is a FIFO of frame events beside the heap, one per frame-event
// kind (indexed by kind-evDeliver: per-frame link arrivals, sends after
// a pipeline delay). A frame event joins its kind's lane when its
// instant is no earlier than the lane's tail; seq grows with every push,
// so a lane holds keys in ascending (at, seq) order and its head is its
// least. The payload sits inline in a power-of-two ring: no slab slot,
// no pos entry, no sift. Any other event, an arrival a FrameControl
// delay or duplicate put out of order included, goes to the heap. Step
// runs whichever of the heap root and the lane heads is least, so events
// fire in exactly the order the heap alone would fire them.
type lane struct {
	ring    []laneEvent // len is zero or a power of two
	head, n int
}

type laneEvent struct {
	key heapKey // slot unused
	frameArgs
}

const (
	numLanes = int(evSend-evDeliver) + 1
	fromHeap = numLanes // earliest's answer for the heap root
	minLane  = 16       // a lane's first ring
)

// push appends an event with key k and returns its entry to fill, or
// nil when k is due before the tail.
func (l *lane) push(k heapKey) *laneEvent {
	mask := len(l.ring) - 1
	if l.n > 0 && k.at < l.ring[(l.head+l.n-1)&mask].key.at {
		return nil
	}
	if l.n == len(l.ring) {
		ring := make([]laneEvent, max(minLane, 2*l.n))
		for i := range l.n {
			ring[i] = l.ring[(l.head+i)&mask]
		}
		l.ring, l.head, mask = ring, 0, len(ring)-1
	}
	e := &l.ring[(l.head+l.n)&mask]
	l.n++
	e.key = k
	return e
}

// Inline frame-event kinds.
const (
	evFn uint8 = iota
	evDeliver
	evSend
	evTimer
	evDeliverBatch
)

// heapKey is what the event heap orders: when the event fires, its
// tie-breaking sequence number, and the slab slot holding its payload.
// It carries no pointers, so a sift copies 24 bytes and runs no write
// barrier however large the payload is.
type heapKey struct {
	at   Time
	seq  uint64
	slot uint32
}

func (k heapKey) before(o heapKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// alloc queues an event to fire at time at, after everything already
// queued for that instant, and returns the slab slot it took with the
// slot's payload, zero but for daemon, for the caller to fill in place
// before anything else is queued. The heap is a binary min-heap of keys
// ordered by (at, seq); the order is total (an alloc consumes one seq
// whether or not its event is later removed), so the sequence in which
// events fire — and with it every simulation — is independent of the
// heap's layout, of which slab slot a payload lands in and of how many
// cancelled firings left in between. Slots are recycled through a free
// list, so the slab never grows past the largest number of events ever
// pending at once.
func (s *Sim) alloc(at Time, daemon bool) (uint32, *event) {
	if !daemon {
		s.foreground++
	}
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = uint32(len(s.slab))
		s.slab = append(s.slab, event{})
		s.pos = append(s.pos, 0)
	}
	s.seq++
	k := heapKey{at: at, seq: s.seq, slot: slot}
	s.heap = append(s.heap, k)
	s.up(len(s.heap)-1, k)
	e := &s.slab[slot]
	e.daemon = daemon
	return slot, e
}

// up sifts k from the hole at index i towards the root. Like down, it
// records in pos where each key it moves lands, for remove to find it.
func (s *Sim) up(i int, k heapKey) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		s.pos[h[i].slot] = int32(i)
		i = parent
	}
	h[i] = k
	s.pos[k.slot] = int32(i)
}

// down sifts k from the hole at index i towards the leaves.
func (s *Sim) down(i int, k heapKey) {
	h := s.heap
	n := len(h)
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && h[r].before(h[small]) {
			small = r
		}
		if !h[small].before(k) {
			break
		}
		h[i] = h[small]
		s.pos[h[i].slot] = int32(i)
		i = small
	}
	h[i] = k
	s.pos[k.slot] = int32(i)
}

// remove takes the event in slot out of the queue, wherever it sits:
// the last key fills the vacated index and sifts whichever way restores
// the order. Popping removes the root, stopping a timer its firing.
func (s *Sim) remove(slot uint32) {
	i, n := int(s.pos[slot]), len(s.heap)-1
	k := s.heap[n]
	s.heap = s.heap[:n]
	if i < n {
		if i > 0 && k.before(s.heap[(i-1)/2]) {
			s.up(i, k)
		} else {
			s.down(i, k)
		}
	}
	if !s.slab[slot].daemon {
		s.foreground--
	}
	s.slab[slot] = event{} // drop references for the GC; alloc relies on zero slots
	s.free = append(s.free, slot)
}

// Sim is the event loop. It is single-threaded: device handlers run
// synchronously inside Run, which is what makes runs deterministic.
type Sim struct {
	now   Time
	seq   uint64
	heap  []heapKey
	slab  []event  // event payloads, indexed by heapKey.slot
	pos   []int32  // heap index of each occupied slot's key
	free  []uint32 // vacant slab slots
	lanes [numLanes]lane
	rng   *rand.Rand

	// foreground counts queued non-daemon events — Run's stop
	// condition, so perpetual daemon timers cannot wedge a drain.
	foreground int

	processed uint64
}

// NewSim creates a simulator with a seeded random source.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's random source (deterministic per seed).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after d elapses (d < 0 is treated as 0).
func (s *Sim) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute time t (clamped to now).
func (s *Sim) ScheduleAt(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	_, e := s.alloc(t, false)
	e.fn = fn
}

// scheduleFrame queues a frame event of kind evSend or evDeliver (the
// closure-free hot path): in its kind's lane when it is in time order
// there, else in the heap. Either way it consumes one seq.
func (s *Sim) scheduleFrame(t Time, kind uint8, f frameArgs) {
	if t < s.now {
		t = s.now
	}
	if e := s.lanes[kind-evDeliver].push(heapKey{at: t, seq: s.seq + 1}); e != nil {
		s.seq++
		s.foreground++
		e.frameArgs = f
		return
	}
	_, e := s.alloc(t, false)
	e.kind, e.frameArgs = kind, f
}

// Timer is a cancellable scheduled callback. The callback and its
// pending firing are carried inline in the event queue (no closures),
// so arming a timer costs one allocation — the Timer itself — and
// re-arming via Reset costs none.
type Timer struct {
	slot   int32 // slab slot of the queued firing; -1 when none is queued
	daemon bool
	fn     func()
	s      *Sim
}

// Stop cancels the timer by taking its queued firing out of the event
// heap: the callback will not run, and no drain waits for the instant
// it was due. It reports whether the call prevented a future firing.
func (t *Timer) Stop() bool {
	if t.slot < 0 {
		return false
	}
	t.s.remove(uint32(t.slot))
	t.slot = -1
	return true
}

// Reset re-arms the timer to fire its callback after d, whether or
// not it already fired or was stopped, and reports whether a pending
// firing was superseded (that firing leaves the queue, as in Stop). It
// implements backend.ResettableTimer. Reset consumes one sequence
// number, exactly like arming a fresh timer at the same instant — a
// Reset-based re-arm is bit-identical to Stop+AfterFunc.
func (t *Timer) Reset(d Duration) bool {
	pending := t.Stop()
	if d < 0 {
		d = 0
	}
	slot, e := t.s.alloc(t.s.now.Add(d), t.daemon)
	e.kind, e.tmr = evTimer, t
	t.slot = int32(slot)
	return pending
}

// arm allocates a timer and queues its inline firing event.
func (s *Sim) arm(d Duration, fn func(), daemon bool) *Timer {
	t := &Timer{slot: -1, daemon: daemon, fn: fn, s: s}
	t.Reset(d)
	return t
}

// AfterFunc schedules fn after d and returns a Timer that can cancel
// it. The concrete type is *netsim.Timer; the backend.Timer return
// type is what lets *Sim satisfy backend.Clock.
func (s *Sim) AfterFunc(d Duration, fn func()) backend.Timer {
	return s.arm(d, fn, false)
}

// AfterFuncDaemon is AfterFunc for background housekeeping that
// re-arms itself forever (consensus heartbeats, election timeouts).
// Daemon timers fire normally while foreground work keeps the
// simulation advancing, but Run does not wait for them: a queue
// holding only daemon events counts as drained. This implements
// backend.DaemonClock.
func (s *Sim) AfterFuncDaemon(d Duration, fn func()) backend.Timer {
	return s.arm(d, fn, true)
}

// Run processes events until no foreground event remains (daemon
// housekeeping timers do not count — see AfterFuncDaemon), returning
// the number processed. A stopped timer is not an event: the drain ends
// at the last live one and leaves Now() there.
func (s *Sim) Run() uint64 {
	start := s.processed
	for s.foreground > 0 {
		s.Step()
	}
	return s.processed - start
}

// RunUntil processes events with timestamps <= t, then advances the
// clock to t. It returns the number of events processed.
func (s *Sim) RunUntil(t Time) uint64 {
	start := s.processed
	for src, k := s.earliest(); src >= 0 && k.at <= t; src, k = s.earliest() {
		s.run(src)
	}
	if s.now < t {
		s.now = t
	}
	return s.processed - start
}

// RunFor is RunUntil(Now()+d).
func (s *Sim) RunFor(d Duration) uint64 { return s.RunUntil(s.now.Add(d)) }

// Pending returns the number of queued events, all of them live:
// stopped and superseded firings are not in the queue.
func (s *Sim) Pending() int {
	n := len(s.heap)
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}

// Step processes the single earliest pending event, reporting whether
// one existed. It is the primitive core.Await pumps while blocking on
// a future under the sim backend: progress one event at a time until
// the future resolves, without draining unrelated work.
func (s *Sim) Step() bool {
	src, _ := s.earliest()
	if src >= 0 {
		s.run(src)
	}
	return src >= 0
}

// earliest returns the least key of the queue and where it sits: a
// lane's index, fromHeap, or -1 when nothing is queued.
func (s *Sim) earliest() (src int, k heapKey) {
	src = -1
	if len(s.heap) > 0 {
		src, k = fromHeap, s.heap[0]
	}
	for i := range s.lanes {
		if l := &s.lanes[i]; l.n > 0 && (src < 0 || l.ring[l.head].key.before(k)) {
			src, k = i, l.ring[l.head].key
		}
	}
	return src, k
}

// run takes the earliest event out of the queue, src saying where it
// sits, and fires it.
func (s *Sim) run(src int) {
	s.processed++
	if src != fromHeap {
		l := &s.lanes[src]
		e := &l.ring[l.head]
		s.now = max(s.now, e.key.at)
		f := e.frameArgs
		*e = laneEvent{} // drop references for the GC
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		s.foreground--
		f.run(uint8(src) + evDeliver)
		return
	}
	top := s.heap[0]
	e := s.slab[top.slot]
	s.remove(top.slot)
	s.now = max(s.now, top.at)
	switch e.kind {
	case evDeliver, evSend:
		e.frameArgs.run(e.kind)
	case evTimer:
		e.tmr.slot = -1
		e.tmr.fn()
	case evDeliverBatch:
		e.net.deliverBatch(e.batch)
	default:
		e.fn()
	}
}
