package netsim

import (
	"errors"
	"fmt"

	"repro/internal/backend"
)

// Frame is a raw layer-2 frame (alias of the backend seam's Frame).
// Frames cross links as bytes — devices must parse them — so
// serialization costs are honest.
//
// Frames pass through the network zero-copy: once handed to Send the
// bytes are shared by every in-flight hop and must not be mutated.
// Receivers borrow the frame for the duration of Recv; anything kept
// longer must be copied (or retained, for pooled frames — see
// FrameBuffer).
type Frame = backend.Frame

// Device is anything attachable to the network: a host NIC or a switch
// (alias of backend.Device). Recv is called synchronously from the
// event loop when a frame arrives on one of the device's ports.
type Device = backend.Device

// FrameBuffer is implemented by recyclable frame buffers (see
// internal/dataplane; alias of backend.FrameBuffer). SendBuf consumes
// one reference per call: the network releases it when the frame is
// dropped or after a plain delivery upcall returns, or hands it to a
// BufReceiver, so a buffer returns to its pool only after its last
// in-flight hop.
type FrameBuffer = backend.FrameBuffer

// BufReceiver is a Device that participates in buffer ownership:
// when a frame carries a FrameBuffer, RecvBuf is called instead of
// Recv and takes over the network's reference, which the device must
// either pass to one onward SendBuf of the same frame or release.
// Further transmissions each Retain once.
type BufReceiver interface {
	RecvBuf(port int, fr Frame, buf FrameBuffer)
}

// LinkConfig describes one link's characteristics.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency Duration
	// BitsPerSec is the transmission rate; 0 means infinite (no
	// serialization delay).
	BitsPerSec int64
	// DropRate is the probability in [0,1) that a frame is lost.
	DropRate float64
}

// FabricConfig shapes the simulated leaf-spine fabric a cluster is
// built on. A zero field takes its default (Fill); a value out of range
// is refused (Validate).
type FabricConfig struct {
	// Leaves is the leaf-switch count; with the core switch this gives
	// the "four interconnected switches" of §4 (default 3).
	Leaves int
	// DropRate injects loss on every link: a probability in [0, 1].
	DropRate float64
	// BatchDelivery coalesces every frame arriving at a host in the
	// same virtual tick into one doorbell-style delivery batch (see
	// Network.SetBatchDelivery).
	BatchDelivery bool
	// HostRxCost models fixed per-delivery receive overhead at each
	// host NIC (see Network.SetHostRxCost). Unbatched, every frame pays
	// it; with BatchDelivery a whole batch pays it once — the mechanism
	// that moves the saturation knee (E15).
	HostRxCost Duration
}

// Fill sets every zero field that has a default to it.
func (c *FabricConfig) Fill() {
	if c.Leaves == 0 {
		c.Leaves = 3
	}
}

// Validate refuses a negative leaf count or receive cost and a drop
// rate that is not a probability.
func (c FabricConfig) Validate() error {
	switch {
	case c.Leaves < 0:
		return fmt.Errorf("netsim: Leaves must not be negative (got %d)", c.Leaves)
	case !(c.DropRate >= 0 && c.DropRate <= 1):
		return fmt.Errorf("netsim: DropRate must lie in [0, 1] (got %v)", c.DropRate)
	case c.HostRxCost < 0:
		return fmt.Errorf("netsim: HostRxCost must not be negative (got %v)", c.HostRxCost)
	}
	return nil
}

// DefaultLink approximates an in-rack 10GbE hop.
var DefaultLink = LinkConfig{Latency: 5 * Microsecond, BitsPerSec: 10_000_000_000}

type endpoint struct {
	att  *Attachment
	port int
}

type link struct {
	cfg LinkConfig
	a   endpoint
	b   endpoint
	// busy tracks per-direction transmitter availability for
	// serialization-delay queueing; index 0 = a→b, 1 = b→a.
	busy [2]Time
	// down silently drops all frames (failure injection).
	down bool
}

// Stats aggregates network-wide frame counters (alias of
// backend.NetStats so both backends report one shape).
type Stats = backend.NetStats

// FrameSpanHook observes one link traversal with its full timing
// decomposition: the frame was handed to the link at sent, waited
// queued for the transmitter, serialized for tx, and arrives at
// arrival (meaningless when dropped). Installed by the tracing layer;
// the hook must not mutate fr, schedule events, or draw randomness.
type FrameSpanHook func(from, to string, fr Frame, sent Time,
	arrival Time, queued, tx Duration, dropped bool)

// FrameControl directs targeted perturbation of one frame in flight.
// The zero value leaves the frame untouched.
type FrameControl struct {
	// Drop discards the frame as if lost on the link.
	Drop bool
	// Dup delivers a second copy of the frame DupDelay after the first
	// arrival (0 = back-to-back). The duplicate counts as a sent frame.
	Dup      bool
	DupDelay Duration
	// Delay postpones delivery without occupying the transmitter —
	// in-network queueing beyond the link's own serialization.
	Delay Duration
}

// FrameControlHook inspects every frame that reaches a live link —
// after routing and the link's own loss draw, so installing a hook
// that returns the zero FrameControl keeps runs bit-identical — and
// returns targeted perturbations (drop/duplicate/delay). The schedule
// explorer uses this to probe delivery orders the random seed alone
// would never produce. The hook must not mutate fr or draw randomness.
type FrameControlHook func(from, to string, fr Frame) FrameControl

// Network wires devices together and moves frames between them on the
// simulator's clock.
type Network struct {
	sim      *Sim
	devices  map[Device]*Attachment
	stats    Stats
	spanHook FrameSpanHook
	ctlHook  FrameControlHook

	// batching coalesces all frames arriving at one host in the same
	// virtual tick into a single doorbell event (off by default; when
	// off, same-seed runs are bit-identical to the per-frame schedule).
	batching bool
	// hostRxCost models the per-wakeup receive-processing cost at a
	// host NIC (interrupt + driver + socket wakeup). 0 (the default)
	// adds nothing. With batching on, a whole batch pays it once —
	// that difference is what doorbell coalescing buys.
	hostRxCost Duration
	// batchFree recycles delivery-batch accumulators.
	batchFree []*deliveryBatch
	// batchesFired / batchedFrames count doorbell firings and the
	// frames they carried — batchedFrames > batchesFired means
	// coalescing actually happened (multi-frame batches formed).
	batchesFired  uint64
	batchedFrames uint64
}

// Attachment is a registered device's place in the network. A device
// that transmits keeps the one AddDevice returned and sends through it,
// and a link holds both ends', so no frame is looked up by device.
type Attachment struct {
	dev   Device
	name  string
	ports []*link     // nil where unconnected
	host  *Host       // non-nil when the device is a Host (batch/rx-cost target)
	br    BufReceiver // non-nil when the device takes pooled frames' references
	// rxFree is when the host's receive context is next available
	// (hostRxCost reservation model).
	rxFree Time
	// pending is the host's most recently armed delivery batch, nil
	// once its doorbell fires. Frames arriving no later than its fire
	// time ride along instead of arming a new doorbell.
	pending *deliveryBatch
}

// deliveryBatch accumulates the frames arriving at one host up to its
// doorbell's fire time; a single evDeliverBatch event delivers them
// all. This is the NIC ring model: the first frame raises the
// doorbell, later frames just land in the ring until the driver runs.
type deliveryBatch struct {
	ds     *Attachment
	fireAt Time // when the doorbell event runs
	items  []batchItem
}

type batchItem struct {
	port int
	fr   Frame
	buf  FrameBuffer
}

// Errors returned by topology construction.
var (
	ErrUnknownDevice = errors.New("netsim: device not registered")
	ErrBadPort       = errors.New("netsim: port out of range or already connected")
)

// NewNetwork creates a network on the given simulator.
func NewNetwork(sim *Sim) *Network {
	return &Network{sim: sim, devices: make(map[Device]*Attachment)}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Sim { return n.sim }

// SetFrameSpanHook installs a per-link-traversal timing hook (nil to
// disable). It fires at send time with the computed
// queueing/serialization split, so span intervals are exact.
func (n *Network) SetFrameSpanHook(fn FrameSpanHook) { n.spanHook = fn }

// SetFrameControlHook installs a per-frame perturbation hook (nil to
// disable). It composes with SetFrameSpanHook.
func (n *Network) SetFrameControlHook(fn FrameControlHook) { n.ctlHook = fn }

// SetBatchDelivery enables (or disables) doorbell-coalesced delivery to
// hosts: every frame arriving at one host while a doorbell is armed is
// delivered when that one event fires, in arrival order, one OnFrame
// upcall each. Off by default; when off, every frame is its own event.
func (n *Network) SetBatchDelivery(on bool) { n.batching = on }

// SetHostRxCost sets the modeled per-wakeup receive cost at hosts
// (default 0 = free). Each host-bound delivery occupies the host's
// receive context for d, queueing behind earlier wakeups; with batch
// delivery on, a whole same-tick batch pays d once.
func (n *Network) SetHostRxCost(d Duration) {
	if d < 0 {
		d = 0
	}
	n.hostRxCost = d
}

// Stats returns a copy of the frame counters.
func (n *Network) Stats() Stats { return n.stats }

// BatchStats reports how many delivery doorbells fired and how many
// frames they carried in total. Equal counts mean every batch was a
// singleton; frames > fired proves coalescing engaged.
func (n *Network) BatchStats() (fired, frames uint64) {
	return n.batchesFired, n.batchedFrames
}

// ResetStats zeroes the frame counters.
func (n *Network) ResetStats() { n.stats = Stats{} }

// AddDevice registers dev with numPorts ports and returns its
// attachment, which SendBuf and SendBufAfter take as the sender.
func (n *Network) AddDevice(dev Device, numPorts int) (*Attachment, error) {
	if _, dup := n.devices[dev]; dup {
		return nil, fmt.Errorf("netsim: device %q already added", dev.DevName())
	}
	if numPorts <= 0 {
		return nil, fmt.Errorf("netsim: device %q needs at least one port", dev.DevName())
	}
	st := &Attachment{dev: dev, name: dev.DevName(), ports: make([]*link, numPorts)}
	st.host, _ = dev.(*Host)
	st.br, _ = dev.(BufReceiver)
	n.devices[dev] = st
	return st, nil
}

// Connect joins (devA, portA) to (devB, portB) with a full-duplex link.
func (n *Network) Connect(devA Device, portA int, devB Device, portB int, cfg LinkConfig) error {
	sa, ok := n.devices[devA]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, devA.DevName())
	}
	sb, ok := n.devices[devB]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, devB.DevName())
	}
	if portA < 0 || portA >= len(sa.ports) || sa.ports[portA] != nil {
		return fmt.Errorf("%w: %s port %d", ErrBadPort, sa.name, portA)
	}
	if portB < 0 || portB >= len(sb.ports) || sb.ports[portB] != nil {
		return fmt.Errorf("%w: %s port %d", ErrBadPort, sb.name, portB)
	}
	l := &link{cfg: cfg, a: endpoint{sa, portA}, b: endpoint{sb, portB}}
	sa.ports[portA] = l
	sb.ports[portB] = l
	return nil
}

// SetLinkDown fails (or restores) the link at (dev, port). While down,
// every frame in either direction is silently dropped — the partial
// failure §5 names as the foremost challenge. It reports whether a
// link was found.
func (n *Network) SetLinkDown(dev Device, port int, down bool) bool {
	s, ok := n.devices[dev]
	if !ok || port < 0 || port >= len(s.ports) || s.ports[port] == nil {
		return false
	}
	s.ports[port].down = down
	return true
}

// Peer returns the device and port on the far side of (dev, port)'s
// link, if connected. Control planes use this to compute routes.
func (n *Network) Peer(dev Device, port int) (Device, int, bool) {
	s, ok := n.devices[dev]
	if !ok || port < 0 || port >= len(s.ports) || s.ports[port] == nil {
		return nil, 0, false
	}
	l := s.ports[port]
	if l.a.att == s && l.a.port == port {
		return l.b.att.dev, l.b.port, true
	}
	return l.a.att.dev, l.a.port, true
}

// Connected reports whether the device's port has a link.
func (n *Network) Connected(dev Device, port int) bool {
	s, ok := n.devices[dev]
	return ok && port >= 0 && port < len(s.ports) && s.ports[port] != nil
}

// NumPorts returns the number of ports dev was registered with.
func (n *Network) NumPorts(dev Device) int {
	s, ok := n.devices[dev]
	if !ok {
		return 0
	}
	return len(s.ports)
}

// Send transmits fr out of dev's port without copying: the caller
// relinquishes the frame, which must not be mutated afterwards.
// Sending on an unconnected port silently discards the frame (like a
// cable pulled out), counted as a drop. The one entry point that looks
// the sender up by device: for occasional senders, not for every frame.
func (n *Network) Send(dev Device, port int, fr Frame) {
	n.SendBuf(n.devices[dev], port, fr, nil)
}

// SendBuf is Send from an attachment (nil: an unregistered device, whose
// frames drop), and for pooled frames: buf (may be nil) is the frame's
// reference-counted buffer, of which one reference is consumed — the
// network releases it when the frame is dropped or after delivery.
func (n *Network) SendBuf(s *Attachment, port int, fr Frame, buf FrameBuffer) {
	n.stats.FramesSent++
	if s == nil || port < 0 || port >= len(s.ports) || s.ports[port] == nil {
		n.stats.FramesDropped++
		if buf != nil {
			buf.Release()
		}
		return
	}
	l := s.ports[port]
	if l.down {
		n.stats.FramesDropped++
		if buf != nil {
			buf.Release()
		}
		return
	}
	var dir int
	var dst endpoint
	if l.a.att == s && l.a.port == port {
		dir, dst = 0, l.b
	} else {
		dir, dst = 1, l.a
	}
	dstS := dst.att

	// Serialization (transmission) delay with per-direction queueing.
	now := n.sim.Now()
	start := now
	if l.busy[dir] > start {
		start = l.busy[dir]
	}
	var txDelay Duration
	if l.cfg.BitsPerSec > 0 {
		txDelay = Duration(int64(len(fr)) * 8 * int64(Second) / l.cfg.BitsPerSec)
	}
	l.busy[dir] = start.Add(txDelay)
	arrival := l.busy[dir].Add(l.cfg.Latency)

	// Loss. The random draw happens before the control hook is
	// consulted so targeted perturbations never shift the seeded
	// stream consumed by later frames.
	lost := l.cfg.DropRate > 0 && n.sim.Rand().Float64() < l.cfg.DropRate
	var ctl FrameControl
	if n.ctlHook != nil {
		ctl = n.ctlHook(s.name, dstS.name, fr)
	}
	if ctl.Drop {
		lost = true
	}
	if ctl.Delay > 0 {
		arrival = arrival.Add(ctl.Delay)
	}
	if lost {
		n.stats.FramesDropped++
		if n.spanHook != nil {
			n.spanHook(s.name, dstS.name, fr, now, arrival,
				start.Sub(now), txDelay, true)
		}
		if buf != nil {
			buf.Release()
		}
		return
	}
	if n.spanHook != nil {
		n.spanHook(s.name, dstS.name, fr, now, arrival,
			start.Sub(now), txDelay, false)
	}

	n.scheduleDelivery(arrival, dstS, dst.port, fr, buf)
	if ctl.Dup {
		n.stats.FramesSent++
		if buf != nil {
			buf.Retain()
		}
		dupAt := arrival
		if ctl.DupDelay > 0 {
			dupAt = dupAt.Add(ctl.DupDelay)
		}
		n.scheduleDelivery(dupAt, dstS, dst.port, fr, buf)
	}
}

// scheduleDelivery queues the arrival of one frame at (dstS, port),
// applying the host receive-cost model and, when enabled, per-tick
// batch coalescing. With batching off and hostRxCost 0 this is
// exactly one evDeliver event at the raw arrival time — the
// bit-identical legacy schedule.
func (n *Network) scheduleDelivery(at Time, dstS *Attachment, port int, fr Frame, buf FrameBuffer) {
	if dstS.host == nil || !n.batching {
		// Switches take the per-frame path at the raw arrival time;
		// hosts too, each frame occupying the receive context for
		// hostRxCost behind earlier wakeups.
		if dstS.host != nil {
			at = n.reserveRx(dstS, at)
		}
		n.sim.scheduleFrame(at, evDeliver, frameArgs{n, dstS, port, fr, buf})
		return
	}
	// Batched: the first frame arms a doorbell at its (receive-cost
	// adjusted) delivery time; every frame arriving no later than that
	// fire time joins the same batch and pays nothing extra. Under
	// load the receive context falls behind arrivals, batches grow,
	// and the per-wakeup cost amortizes — exactly the doorbell-
	// coalescing effect E15 measures. Append order is send order (the
	// simulator's seq order) and per-link arrivals are monotone, so
	// per-link FIFO is preserved within and across batches (new
	// doorbells never fire before ones already armed: rxFree reserves
	// make fire times monotone per host).
	if b := dstS.pending; b != nil && at <= b.fireAt {
		b.items = append(b.items, batchItem{port, fr, buf})
		return
	}
	b := n.getBatch()
	b.ds = dstS
	b.fireAt = n.reserveRx(dstS, at)
	b.items = append(b.items, batchItem{port, fr, buf})
	dstS.pending = b
	_, e := n.sim.alloc(b.fireAt, false) // no earlier than now: reserveRx only delays
	e.kind, e.net, e.batch = evDeliverBatch, n, b
}

// reserveRx charges one wakeup against the host's receive context and
// returns when the delivery runs (identity when hostRxCost is 0).
func (n *Network) reserveRx(dstS *Attachment, at Time) Time {
	if n.hostRxCost == 0 {
		return at
	}
	start := at
	if dstS.rxFree > start {
		start = dstS.rxFree
	}
	at = start.Add(n.hostRxCost)
	dstS.rxFree = at
	return at
}

// getBatch draws a recycled batch accumulator (or a fresh one).
func (n *Network) getBatch() *deliveryBatch {
	if k := len(n.batchFree); k > 0 {
		b := n.batchFree[k-1]
		n.batchFree = n.batchFree[:k-1]
		return b
	}
	return &deliveryBatch{}
}

// deliverBatch fires one doorbell: the batch detaches from the host
// first (so sends processed after the doorbell arm a fresh one), then
// every accumulated frame is delivered in arrival order, each exactly as
// an evDeliver event of its own would deliver it.
func (n *Network) deliverBatch(b *deliveryBatch) {
	ds := b.ds
	if ds.pending == b {
		ds.pending = nil
	}
	n.batchesFired++
	n.batchedFrames += uint64(len(b.items))
	for _, it := range b.items {
		n.deliver(ds, it.port, it.fr, it.buf)
	}
	b.ds = nil
	clear(b.items)
	b.items = b.items[:0]
	n.batchFree = append(n.batchFree, b)
}

// SendBufAfter is SendBuf delayed by d — the closure-free path for
// store-and-forward devices that emit after a pipeline delay.
func (n *Network) SendBufAfter(s *Attachment, port int, fr Frame, buf FrameBuffer, d Duration) {
	if d < 0 {
		d = 0
	}
	n.sim.scheduleFrame(n.sim.Now().Add(d), evSend, frameArgs{n, s, port, fr, buf})
}

// deliver hands an arrived frame to its destination device (the
// evDeliver event body), and with a pooled frame the network's
// reference: a BufReceiver takes it over, any other device borrows the
// frame for its Recv, after which the reference is released.
func (n *Network) deliver(to *Attachment, port int, fr Frame, buf FrameBuffer) {
	n.stats.FramesDelivered++
	n.stats.BytesDelivered += uint64(len(fr))
	if buf != nil && to.br != nil {
		to.br.RecvBuf(port, fr, buf)
		return
	}
	to.dev.Recv(port, fr)
	if buf != nil {
		buf.Release()
	}
}

// Host is a single-port end station. Incoming frames are handed to
// OnFrame, one call each; outgoing frames go through Send.
type Host struct {
	name    string
	net     *Network
	att     *Attachment
	OnFrame func(fr Frame)
}

// NewHost creates a host and registers it with one port.
func NewHost(n *Network, name string) (*Host, error) {
	h := &Host{name: name, net: n}
	att, err := n.AddDevice(h, 1)
	if err != nil {
		return nil, err
	}
	h.att = att
	return h, nil
}

// DevName implements Device.
func (h *Host) DevName() string { return h.name }

// Recv implements Device by dispatching to OnFrame.
func (h *Host) Recv(port int, fr Frame) {
	if h.OnFrame != nil {
		h.OnFrame(fr)
	}
}

// Send transmits a frame out the host's NIC.
func (h *Host) Send(fr Frame) { h.net.SendBuf(h.att, 0, fr, nil) }

// SendBuf transmits a pooled frame out the host's NIC, consuming one
// reference of buf.
func (h *Host) SendBuf(fr Frame, buf FrameBuffer) { h.net.SendBuf(h.att, 0, fr, buf) }

// SetOnFrame implements backend.Link by installing the receive upcall.
func (h *Host) SetOnFrame(fn func(fr Frame)) { h.OnFrame = fn }

// Clock implements backend.Link: a sim host's timers run on the
// simulator's virtual clock.
func (h *Host) Clock() backend.Clock { return h.net.sim }

// Exec implements backend.Link. The simulation is single-threaded and
// Exec is only legal from outside the event context, so fn runs
// inline.
func (h *Host) Exec(fn func()) { fn() }

// MTU implements backend.Link: simulated links carry frames of any
// size in one piece. Returning 0 (no limit) keeps fragment sizing —
// and with it every seeded run — bit-identical to the pre-seam code.
func (h *Host) MTU() int { return 0 }
