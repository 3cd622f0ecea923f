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
// Concurrency model: one upcall lock per node, taken by the node's
// reader goroutine, timers and Exec, so each node runs single-threaded,
// as on the simulator, and nodes run in parallel. The cluster's own
// Clock and Exec take every lock, in link order.
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

// Cluster is a set of UDP links sharing one wall-clock epoch and one
// peer table.
type Cluster struct {
	epoch time.Time
	clock wallClock // the cluster-wide clock: its timers take every lock
	links []*Link   // one per upcall lock, in the order they are taken
	peers map[wire.StationID]*net.UDPAddr

	started bool
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// LockStats counts upcall-lock acquisitions, those that found the lock
// held, and the wall time those waited.
type LockStats struct {
	Acquired, Contended, WaitNs uint64
}

// NewCluster creates an empty cluster. Add links with NewLink, wire
// the stack onto them, then call Start to begin delivering frames.
func NewCluster() *Cluster {
	c := &Cluster{epoch: time.Now(), peers: make(map[wire.StationID]*net.UDPAddr)}
	c.clock = wallClock{c: c, lock: c.lockAll, unlock: c.unlockAll}
	return c
}

// Clock returns the cluster's wall clock, whose timers take every lock.
func (c *Cluster) Clock() backend.Clock { return &c.clock }

// Exec runs fn holding every node's upcall lock.
func (c *Cluster) Exec(fn func()) { c.clock.exec(fn) }

func (c *Cluster) lockAll() {
	for _, l := range c.links {
		l.acquire()
	}
}

func (c *Cluster) unlockAll() {
	for _, l := range c.links {
		l.mu.Unlock()
	}
}

// Stats sums every node's frame and upcall-lock counters, this call's
// own acquisitions included. Call it outside the upcall context.
func (c *Cluster) Stats() (s backend.NetStats, l LockStats) {
	c.Exec(func() {
		for _, lk := range c.links {
			s.FramesSent += lk.stats.FramesSent
			s.FramesDelivered += lk.stats.FramesDelivered
			s.FramesDropped += lk.stats.FramesDropped
			s.BytesDelivered += lk.stats.BytesDelivered
			l.Acquired += lk.locks.Acquired
			l.Contended += lk.locks.Contended
			l.WaitNs += lk.locks.WaitNs
		}
	})
	return s, l
}

// ResetStats zeroes the frame and lock counters.
func (c *Cluster) ResetStats() {
	c.Exec(func() {
		for _, l := range c.links {
			l.stats, l.locks = backend.NetStats{}, LockStats{}
		}
	})
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
	l.clock = wallClock{c: c, lock: l.acquire, unlock: l.mu.Unlock}
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

// Close shuts the sockets down and returns once no upcall runs: timers
// still pending find the cluster closed and do not call up.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, l := range c.links {
		l.conn.Close()
	}
	c.wg.Wait()
	c.Exec(func() {})
	return nil
}

// Sleep blocks for d of wall time — the realnet analogue of advancing
// the simulator's clock. Deliveries and timers proceed underneath.
func (c *Cluster) Sleep(d backend.Duration) { time.Sleep(time.Duration(d)) }

// --- clock ---

// wallClock implements backend.Clock on time.Since(epoch); its timers
// call up holding its locks (one node's, or every node's).
type wallClock struct {
	c            *Cluster
	lock, unlock func()
}

func (w *wallClock) exec(fn func()) {
	w.lock()
	defer w.unlock()
	fn()
}

func (w *wallClock) Now() backend.Time {
	return backend.Time(time.Since(w.c.epoch))
}

func (w *wallClock) Schedule(d backend.Duration, fn func()) {
	w.AfterFunc(d, fn)
}

func (w *wallClock) AfterFunc(d backend.Duration, fn func()) backend.Timer {
	t := &wallTimer{w: w, fn: fn}
	t.stopped.Store(true) // nothing is armed yet
	t.Reset(d)
	return t
}

// wallTimer implements backend.ResettableTimer on one time.Timer,
// re-armed in place, and a stop flag checked under the clock's lock;
// Stop takes no locks. Every arming records when it is due, so a firing
// that gets the lock earlier belongs to a superseded arming and returns
// (a Reset inside an upcall wins against a concurrent firing, as on the
// simulator); one that gets it later runs the callback in the current
// arming's stead, whose own firing the flag then voids: once per
// arming, never early.
type wallTimer struct {
	stopped atomic.Bool
	due     atomic.Int64 // backend.Time of the current arming
	w       *wallClock
	fn      func()
	t       *time.Timer
}

// fire is the time.Timer's callback, bound once.
func (t *wallTimer) fire() {
	t.w.lock()
	defer t.w.unlock()
	if int64(t.w.Now()) < t.due.Load() || t.w.c.closed.Load() || t.stopped.Swap(true) {
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

// Reset re-arms the callback after d, fired or stopped or not, and
// reports whether a pending firing was superseded. Call only under the
// clock's lock, the same single-owner contract as the simulator's Timer.
func (t *wallTimer) Reset(d backend.Duration) bool {
	d = max(d, 0)
	pending := !t.stopped.Swap(false)
	// Due before armed: the time.Timer cannot fire earlier than this.
	t.due.Store(int64(t.w.Now().Add(d)))
	if t.t == nil {
		t.t = time.AfterFunc(time.Duration(d), t.fire)
	} else {
		t.t.Reset(time.Duration(d))
	}
	return pending
}

// --- link ---

// Link is one node's UDP attachment: implements backend.Link. Its
// deliveries, timers and Exec run under its one upcall lock.
type Link struct {
	cluster *Cluster
	station wire.StationID
	conn    *net.UDPConn
	onFrame func(fr backend.Frame)

	mu    sync.Mutex
	clock wallClock // the node's clock: its timers take mu
	stats backend.NetStats
	locks LockStats
}

// acquire takes the upcall lock. An uncontended acquisition is not
// timed.
func (l *Link) acquire() {
	if !l.mu.TryLock() {
		t0 := time.Now()
		l.mu.Lock()
		l.locks.Contended++
		l.locks.WaitNs += uint64(time.Since(t0))
	}
	l.locks.Acquired++
}

// SetOnFrame implements backend.Link. Install handlers before Start
// (or inside Exec) — the reader goroutine reads it under the lock.
func (l *Link) SetOnFrame(fn func(fr backend.Frame)) { l.onFrame = fn }

// Clock implements backend.Link: timers fire under the node's lock.
func (l *Link) Clock() backend.Clock { return &l.clock }

// Exec implements backend.Link: fn runs holding the node's upcall lock.
func (l *Link) Exec(fn func()) { l.clock.exec(fn) }

// MTU implements backend.Link: one frame per datagram.
func (l *Link) MTU() int { return MaxDatagram }

// SendBuf implements backend.Link, under the node's lock: unicast to
// the destination station's socket, or one per peer for a broadcast
// (the fabric-less flood). An unroutable frame (unknown station,
// StationAny, no header) counts as sent and dropped, like a sim send on
// a dead port; so does every failed write, so once the sockets drain
// FramesSent is FramesDelivered plus FramesDropped. The kernel copies
// the bytes out, so buf's reference is released before returning.
func (l *Link) SendBuf(fr backend.Frame, buf backend.FrameBuffer) {
	defer func() {
		if buf != nil {
			buf.Release()
		}
	}()
	dst, ok := wire.PeekDst(fr)
	if ok && dst == wire.StationBroadcast {
		for st, addr := range l.cluster.peers {
			if st != l.station {
				l.write(fr, addr)
			}
		}
		return
	}
	addr, known := l.cluster.peers[dst]
	if !ok || !known { // includes StationAny: no fabric routes on object ID here
		l.stats.FramesSent++
		l.stats.FramesDropped++
		return
	}
	l.write(fr, addr)
}

// write hands one copy of fr to the socket, counting it.
func (l *Link) write(fr backend.Frame, addr *net.UDPAddr) {
	l.stats.FramesSent++
	if _, err := l.conn.WriteToUDP(fr, addr); err != nil {
		l.stats.FramesDropped++
	}
}

// readLoop is the link's reader goroutine: one upcall per datagram
// under the node's lock, which borrows the link's one buffer for its
// duration, as on the simulator. Read, not ReadFromUDP, which
// allocates the sender's address.
func (l *Link) readLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, MaxDatagram)
	for {
		n, err := l.conn.Read(buf)
		if err != nil {
			return // socket closed
		}
		l.acquire()
		l.stats.FramesDelivered++
		l.stats.BytesDelivered += uint64(n)
		if l.onFrame != nil {
			l.onFrame(buf[:n])
		}
		l.mu.Unlock()
	}
}
