// Package realnet implements the backend seam over real UDP sockets
// and wall-clock time: the same protocol stack that runs on the
// deterministic simulator runs here against the kernel's network path,
// real scheduling jitter, and real backpressure.
//
// A Cluster is a set of localhost UDP endpoints (one per node, bound
// to 127.0.0.1:0) with an in-process peer table mapping station IDs to
// socket addresses — the moral equivalent of the simulator's fabric,
// minus the fabric: there are no switches, so only destination-routed
// frames (the E2E discovery scheme) work. Broadcast frames unicast to
// every peer, mirroring the simulator's flood semantics (the sender is
// excluded).
//
// Concurrency model: one cluster-wide upcall mutex serializes every
// frame delivery and timer callback, preserving the single-threaded
// execution model the stack was written against on the simulator.
// Reader goroutines (one per link) and fired timers take the lock
// before calling up; external code enters through Link.Exec. This
// trades parallelism for fidelity to the sim's semantics — the point
// of this backend is an honest kernel path, not a fast one.
package realnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/wire"
)

// MaxDatagram is the largest UDP payload deliverable over IPv4
// (65535 - 20 IP - 8 UDP): the realnet link MTU. Senders of large
// transfers size fragments to it via backend.Link.MTU.
const MaxDatagram = 65507

// Cluster is a set of UDP links sharing one upcall lock, one wall
// clock, and one peer table.
type Cluster struct {
	mu    sync.Mutex // the upcall lock: serializes deliveries, timers, Exec
	epoch time.Time
	links []*Link
	peers map[wire.StationID]*net.UDPAddr
	stats backend.NetStats // guarded by mu

	started bool
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// NewCluster creates an empty cluster. Add links with NewLink, wire
// the stack onto them, then call Start to begin delivering frames.
func NewCluster() *Cluster {
	return &Cluster{
		epoch: time.Now(),
		peers: make(map[wire.StationID]*net.UDPAddr),
	}
}

// Clock returns the cluster's wall clock (zero at cluster creation).
func (c *Cluster) Clock() backend.Clock { return (*wallClock)(c) }

// Stats returns a copy of the frame counters. Call from outside the
// upcall context (it takes the upcall lock).
func (c *Cluster) Stats() backend.NetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the frame counters.
func (c *Cluster) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = backend.NetStats{}
}

// NewLink binds a fresh localhost UDP socket for station st and
// registers it in the peer table. Call before Start.
func (c *Cluster) NewLink(name string, st wire.StationID) (*Link, error) {
	if c.started {
		return nil, fmt.Errorf("realnet: NewLink after Start")
	}
	if _, dup := c.peers[st]; dup {
		return nil, fmt.Errorf("realnet: station %v already has a link", st)
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("realnet: bind %s: %w", name, err)
	}
	l := &Link{cluster: c, station: st, conn: conn}
	c.links = append(c.links, l)
	c.peers[st] = conn.LocalAddr().(*net.UDPAddr)
	return l, nil
}

// Start launches one reader goroutine per link. Frames arriving
// before Start are buffered by the kernel socket, not lost.
func (c *Cluster) Start() {
	c.started = true
	for _, l := range c.links {
		c.wg.Add(1)
		go l.readLoop(&c.wg)
	}
}

// Close shuts every socket down and waits for the reader goroutines
// to exit. Timers still pending may fire afterwards; their sends fail
// quietly against the closed sockets.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, l := range c.links {
		l.conn.Close()
	}
	c.wg.Wait()
	return nil
}

// Sleep blocks for d of wall time — the realnet analogue of advancing
// the simulator's clock. Deliveries and timers proceed underneath.
func (c *Cluster) Sleep(d backend.Duration) { time.Sleep(time.Duration(d)) }

// --- clock ---

// wallClock implements backend.Clock on time.Since(epoch). Timer
// callbacks run under the cluster's upcall lock, preserving the
// single-threaded model the stack assumes.
type wallClock Cluster

func (w *wallClock) Now() backend.Time {
	return backend.Time(time.Since(w.epoch))
}

func (w *wallClock) Schedule(d backend.Duration, fn func()) {
	w.AfterFunc(d, fn)
}

func (w *wallClock) AfterFunc(d backend.Duration, fn func()) backend.Timer {
	t := &wallTimer{c: (*Cluster)(w), fn: fn}
	t.stopped.Store(true) // nothing is armed yet
	t.Reset(d)
	return t
}

// wallTimer wraps one time.Timer, created at the first arming and
// re-armed in place ever after, with a stop flag checked under the
// upcall lock. Stop itself takes no locks, so it is safe to call from
// inside upcalls without deadlocking against a firing timer. It
// implements backend.ResettableTimer. What tells a firing of the current
// arming from one that Reset has superseded is the time: every arming
// records when it is due on the cluster's monotonic clock, and a firing
// that gets the upcall lock before then can only belong to an earlier
// arming (the check runs under the lock, so a Reset completed inside an
// upcall wins against a concurrently fired timer, exactly as on the
// simulator). A superseded firing that gets the lock after the new due
// time runs the callback in the new arming's stead, and the flag makes
// the latter's own firing a no-op: once per arming, never early.
type wallTimer struct {
	stopped atomic.Bool
	due     atomic.Int64 // backend.Time of the current arming
	c       *Cluster
	fn      func()
	t       *time.Timer
}

// fire is the time.Timer's callback, bound once.
func (t *wallTimer) fire() {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check under the lock: a Stop or Reset that completed inside an
	// upcall must win against a concurrently fired timer.
	if int64((*wallClock)(c).Now()) < t.due.Load() || c.closed.Load() || t.stopped.Swap(true) {
		return
	}
	t.fn()
}

func (t *wallTimer) Stop() bool {
	if t.stopped.Swap(true) {
		return false
	}
	t.t.Stop() // best-effort; the flag is what guarantees fn won't run
	return true
}

// Reset implements backend.ResettableTimer: it re-arms the callback
// after d whether or not the timer already fired or was stopped, and
// reports whether a pending firing was superseded. Call only from
// upcall context (under the cluster lock), the same single-owner
// contract as the simulator's Timer.
func (t *wallTimer) Reset(d backend.Duration) bool {
	d = max(d, 0)
	pending := !t.stopped.Swap(false)
	// Due before armed: the time.Timer cannot fire earlier than this.
	t.due.Store(int64((*wallClock)(t.c).Now().Add(d)))
	if t.t == nil {
		t.t = time.AfterFunc(time.Duration(d), t.fire)
	} else {
		t.t.Reset(time.Duration(d))
	}
	return pending
}

// --- link ---

// Link is one node's UDP attachment: implements backend.Link.
type Link struct {
	cluster *Cluster
	station wire.StationID
	conn    *net.UDPConn
	onFrame func(fr backend.Frame)
}

// SetOnFrame implements backend.Link. Install handlers before Start
// (or inside Exec) — the reader goroutine reads it under the lock.
func (l *Link) SetOnFrame(fn func(fr backend.Frame)) { l.onFrame = fn }

// Clock implements backend.Link.
func (l *Link) Clock() backend.Clock { return l.cluster.Clock() }

// Exec implements backend.Link: fn runs holding the cluster's upcall
// lock, mutually excluded with every frame delivery and timer.
func (l *Link) Exec(fn func()) {
	l.cluster.mu.Lock()
	defer l.cluster.mu.Unlock()
	fn()
}

// MTU implements backend.Link: one frame per datagram.
func (l *Link) MTU() int { return MaxDatagram }

// SendBuf implements backend.Link: the frame is routed on its wire
// destination station — unicast to the peer's socket, or one unicast
// per peer for broadcasts (the fabric-less flood). Unroutable frames
// (unknown station, StationAny with no fabric to route on object ID,
// frames too short for a header) are counted as drops, exactly like a
// sim send on a dead port. Every copy handed to a socket counts as one
// frame sent and, if the write fails, one dropped, so once the sockets
// drain FramesSent is FramesDelivered plus FramesDropped. The kernel
// copies the bytes out in WriteToUDP, so buf's reference is released
// before returning.
func (l *Link) SendBuf(fr backend.Frame, buf backend.FrameBuffer) {
	c := l.cluster
	defer func() {
		if buf != nil {
			buf.Release()
		}
	}()
	dst, ok := wire.PeekDst(fr)
	if ok && dst == wire.StationBroadcast {
		for st, addr := range c.peers {
			if st != l.station {
				l.write(fr, addr)
			}
		}
		return
	}
	addr, known := c.peers[dst]
	if !ok || !known { // includes StationAny: no fabric routes on object ID here
		c.stats.FramesSent++
		c.stats.FramesDropped++
		return
	}
	l.write(fr, addr)
}

// write hands one copy of fr to the socket, counting it.
func (l *Link) write(fr backend.Frame, addr *net.UDPAddr) {
	l.cluster.stats.FramesSent++
	if _, err := l.conn.WriteToUDP(fr, addr); err != nil {
		l.cluster.stats.FramesDropped++
	}
}

// readLoop is the link's reader goroutine: one reusable buffer, one
// upcall per datagram under the cluster lock. The upcall borrows the
// buffer for its duration (the same contract as the simulator), so a
// single buffer per link suffices.
func (l *Link) readLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, MaxDatagram)
	c := l.cluster
	for {
		n, _, err := l.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		c.mu.Lock()
		c.stats.FramesDelivered++
		c.stats.BytesDelivered += uint64(n)
		if l.onFrame != nil {
			l.onFrame(buf[:n])
		}
		c.mu.Unlock()
	}
}
