package main

import (
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is a shared virtual machine whose speed
// wanders by 20-30% over seconds and minutes (measured: the same binary
// and seed gave 52k and 83k simulated ops per host second ten minutes
// apart). A figure in host seconds therefore says as much about the
// neighbours as about the code. hostRef is a fixed piece of work of the
// simulator's kind - pop the earliest of 4096 timed events, look an
// object up by its 16-byte ID, copy 64 bytes out of a 16 MiB working set,
// push the event back - that nothing outside bench/ can change. A run
// times one chunk of it before and after every slice of measured work
// and every set-up, and states wall-clock results as they would read on a
// host of nominal speed: a time is multiplied by the speed the chunks
// around it measured, a rate divided by it. Measured over five minutes of
// sim_read_hot, ten-second medians spread 14.4% raw and 3.9% so stated.
//
// The kernel allocates nothing and stores no pointer, so the collector
// neither runs because of it nor slows it with write barriers.
type hostRef struct {
	heap  []refEvent
	index map[[16]byte]uint32 // object ID -> offset of the object in objs
	ids   [][16]byte
	objs  []byte
	x     uint64 // xorshift64 state
	sink  [64]byte

	reload int           // untimed and
	chunk  int           // timed iterations per chunk; see resize
	spent  time.Duration // host time all chunks took so far
	heapMB float64       // live heap the kernel's own data takes
}

type refEvent struct {
	at  uint64
	obj uint32
}

const (
	refObjects = 32768
	refObjSize = 512
	refPending = 4096
	refChunk   = 50_000 // timed iterations per chunk at -seconds 10 and above: 6-10 ms
	refWarmup  = 4 * refChunk
	// refReload iterations run untimed before the timed ones: the measured
	// work has pushed the kernel's data out of the caches, and the first
	// 10,000 iterations after it take a third longer than the rest
	// (measured: 149, 115, 111 ns per iteration in successive 10,000s).
	// Untimed, neither the chunk's length nor how much cache the code
	// under test uses shows in the speed.
	refReload   = 10_000
	refIOSize   = 64
	refMaxDelay = 1024

	// refNominalNs fixes the scale: the kernel's time per iteration on the
	// 2-core box the benchmark was written on, at a quiet moment. Only
	// ratios between runs matter.
	refNominalNs = 170.0
)

// host is the process's one reference kernel, built at first use.
var host = sync.OnceValue(newHostRef)

func newHostRef() *hostRef {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r := &hostRef{
		heap:   make([]refEvent, 0, refPending),
		index:  make(map[[16]byte]uint32, refObjects),
		ids:    make([][16]byte, refObjects),
		objs:   make([]byte, refObjects*refObjSize),
		x:      88172645463325252,
		reload: refReload,
		chunk:  refChunk,
	}
	for i := range r.ids {
		for j := range r.ids[i] {
			r.ids[i][j] = byte(r.next())
		}
		r.index[r.ids[i]] = uint32(i * refObjSize)
	}
	for i := 0; i < refPending; i++ {
		r.push(refEvent{at: r.next() % refMaxDelay})
	}
	r.run(refWarmup)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapMB = float64(m1.HeapAlloc-m0.HeapAlloc) / (1 << 20)
	return r
}

func (r *hostRef) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

func (r *hostRef) push(e refEvent) {
	h := append(r.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	r.heap = h
}

func (r *hostRef) pop() refEvent {
	h := r.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if l+1 < n && h[l+1].at < h[m].at {
			m = l + 1
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	r.heap = h
	return top
}

func (r *hostRef) run(iters int) {
	for i := 0; i < iters; i++ {
		e := r.pop()
		x := r.next()
		off := r.index[r.ids[x%refObjects]]
		at := off + uint32(x>>32)%(refObjSize-refIOSize)
		copy(r.sink[:], r.objs[at:at+refIOSize])
		e.at += 1 + x%refMaxDelay
		e.obj = off
		r.push(e)
	}
}

// resize sets the chunk for a run of the given length: a shorter run has
// shorter slices, and chunks to match, down to a twentieth. The reload is
// whole from a quarter of the full length, the traced run's, so that a
// speed means the same there and at full length.
func (r *hostRef) resize(seconds float64) {
	r.chunk = max(refChunk/20, min(refChunk, int(refChunk*seconds/10)))
	r.reload = max(refReload/20, min(refReload, int(refReload*seconds/2.5)))
}

// speed times one chunk and returns the host's speed at this moment as a
// share of nominal: below 1, the host is slow.
func (r *hostRef) speed() float64 {
	t0 := time.Now()
	r.run(r.reload)
	t1 := time.Now()
	r.run(r.chunk)
	t2 := time.Now()
	r.spent += t2.Sub(t0)
	return refNominalNs * float64(r.chunk) / float64(t2.Sub(t1).Nanoseconds())
}

// netRef is the host reference for the kernel's socket path, which the
// compute kernel above does not follow: a datagram to a loopback socket
// and its echo, by sockets and an echoing goroutine of the bench's own.
// real_rw_closed states its results by the geometric mean of both
// speeds. Measured over fifteen minutes of half-second bursts, twelve-
// second medians of its goodput spread 13.3% raw (range 43%) and 5.2% so
// stated (range 18%); the median latency 9.1% and 5.2%.
type netRef struct {
	a, b     *net.UDPConn
	peer     netip.AddrPort
	msg, buf []byte
	echoing  chan struct{} // closed when the echo goroutine has ended
	err      error         // the first failed round trip
}

const (
	netRefTrips     = 1000 // round trips per chunk: about 5 ms
	netRefNominalUs = 5.0  // as refNominalNs: one round trip on the same box
)

func newNetRef() (*netRef, error) {
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		return nil, err
	}
	b, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		a.Close()
		return nil, err
	}
	n := &netRef{a: a, b: b, peer: b.LocalAddr().(*net.UDPAddr).AddrPort(),
		msg: make([]byte, ioMean), buf: make([]byte, 2*ioMean), echoing: make(chan struct{})}
	go func() {
		defer close(n.echoing)
		buf := make([]byte, 2*ioMean)
		for {
			k, from, err := b.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			b.WriteToUDPAddrPort(buf[:k], from) // a lost echo shows as a's read deadline
		}
	}()
	n.speed() // warm: the first trips pay for route and socket caches
	return n, n.err
}

// speed times one chunk of round trips and returns the socket path's
// speed as a share of nominal, or 0 once a round trip has failed.
func (n *netRef) speed() float64 {
	if n.err != nil {
		return 0
	}
	t0 := time.Now()
	n.err = n.a.SetReadDeadline(t0.Add(time.Second))
	for i := 0; i < netRefTrips && n.err == nil; i++ {
		if _, n.err = n.a.WriteToUDPAddrPort(n.msg, n.peer); n.err == nil {
			_, _, n.err = n.a.ReadFromUDPAddrPort(n.buf)
		}
	}
	return netRefNominalUs * 1e3 * netRefTrips / float64(time.Since(t0).Nanoseconds())
}

// close ends the echo goroutine and waits for it.
func (n *netRef) close() {
	n.a.Close()
	n.b.Close()
	<-n.echoing
}
