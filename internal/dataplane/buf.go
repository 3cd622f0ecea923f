// Package dataplane is the unified frame path shared by every layer
// that produces or consumes GASP frames: a reference-counted frame
// buffer pool (Buf) so encode → transport send → fabric delivery →
// parse → handler dispatch reuse one allocation instead of copying at
// every hop, and a per-node Mux that dispatches decoded frames to
// handlers registered by message type, records the dispatch span of a
// traced frame, and counts the frames nobody claimed as drops.
//
// # Buffer ownership rules
//
// A Buf is born with one reference, owned by the caller of GetBuf (or
// EncodeFrame). Ownership passes with the frame:
//
//   - netsim.Network.SendBuf consumes one reference per call: the
//     network releases it when the frame is dropped, or after the
//     receiving host's Recv returns. A sender that wants to keep the
//     frame (e.g. for retransmission) must Retain before sending and
//     Release when done.
//   - A switch's RecvBuf takes the network's reference over. Forwarding,
//     it hands that reference to the one onward SendBuf; flooding or
//     punting, it Retains once per scheduled copy and then releases
//     it, as it does on every drop.
//   - Frame receivers and mux handlers borrow: header and payload
//     views are valid only until the dispatch call returns. A handler
//     that stores payload bytes past that point must copy them. A frame
//     is borrowed for its own upcall: when a doorbell delivers
//     several, each one's reference is released as its upcall returns,
//     not when the last one's does.
//   - A frame's header bytes never change after EncodeFrameV: the Buf
//     carries the header it marshalled (Header), and a switch routes on
//     that copy instead of parsing the bytes again at every hop. A frame
//     sent with a Buf is that Buf's Bytes(). A buffer from GetBuf carries
//     no header, so whoever fills it is parsed and verified as before.
//
// Plain []byte frames (tests, switch-generated replies) keep working:
// a nil buffer means the garbage collector owns the frame and no
// recycling happens.
package dataplane

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// bufClasses are the pooled capacity classes. Frames larger than the
// biggest class (a jumbo payload plus header) are allocated directly
// and never recycled.
var bufClasses = [...]int{
	256,
	4096,
	wire.TracedHeaderSize + wire.MaxPayload,
}

var pools = func() [len(bufClasses)]*sync.Pool {
	var ps [len(bufClasses)]*sync.Pool
	for i, size := range bufClasses {
		size := size
		ps[i] = &sync.Pool{New: func() any {
			return &Buf{b: make([]byte, 0, size), pool: ps[i]}
		}}
	}
	return ps
}()

// liveBufs counts buffers with at least one outstanding reference.
// The invariant checker compares it across quiescent points: a drained
// simulation must return every frame buffer it took.
var liveBufs atomic.Int64

// LiveBufs reports the number of buffers currently held live (acquired
// by GetBuf and not yet fully released).
func LiveBufs() int64 { return liveBufs.Load() }

// Buf is a reference-counted frame buffer. See the package comment
// for the ownership rules.
type Buf struct {
	b    []byte
	refs atomic.Int32
	pool *sync.Pool // nil when the buffer is not recycled

	// hdr is the header EncodeFrameV marshalled into b, as DecodeFrom
	// would read it back, when hasHdr is set.
	hdr    wire.Header
	hasHdr bool
}

// GetBuf returns a buffer of length n with one reference, drawn from
// the pool when a capacity class fits. It carries no header.
func GetBuf(n int) *Buf {
	liveBufs.Add(1)
	for i, size := range bufClasses {
		if n <= size {
			b := pools[i].Get().(*Buf)
			b.b = b.b[:n]
			b.refs.Store(1)
			b.hasHdr = false
			return b
		}
	}
	b := &Buf{b: make([]byte, n)}
	b.refs.Store(1)
	return b
}

// Bytes returns the buffer's contents. The slice is valid only while
// the caller holds a reference.
func (b *Buf) Bytes() []byte { return b.b }

// Len returns the buffer length.
func (b *Buf) Len() int { return len(b.b) }

// Retain adds a reference.
func (b *Buf) Retain() { b.refs.Add(1) }

// Release drops a reference; the last release returns the buffer to
// its pool. Releasing more times than retained is a bug and panics.
func (b *Buf) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		liveBufs.Add(-1)
		if b.pool != nil {
			b.b = b.b[:0]
			b.pool.Put(b)
		}
	case n < 0:
		panic(fmt.Sprintf("dataplane: Buf over-released (refs %d)", n))
	}
}

// Refs reports the current reference count (for tests).
func (b *Buf) Refs() int32 { return b.refs.Load() }

// Header returns the header EncodeFrameV marshalled into the buffer —
// what wire's DecodeFrom of Bytes() returns, checksum verified — or nil
// for a buffer GetBuf handed out. The caller must not modify it.
func (b *Buf) Header() *wire.Header {
	if !b.hasHdr {
		return nil
	}
	return &b.hdr
}

// EncodeFrame encodes a complete frame (header + payload) into a
// pooled buffer, mirroring wire.Encode without the per-message
// allocation. The caller owns the returned buffer's single reference.
func EncodeFrame(h *wire.Header, payload []byte) (*Buf, error) {
	return EncodeFrameV(h, payload, nil)
}

// EncodeFrameV is EncodeFrame for a payload in two pieces, prefix then
// body: a message header in front of bytes that already sit somewhere
// (an object's region) costs those bytes one copy, into the frame.
func EncodeFrameV(h *wire.Header, prefix, body []byte) (*Buf, error) {
	n := len(prefix) + len(body)
	if n > wire.MaxPayload {
		return nil, fmt.Errorf("%w: %d", wire.ErrTooLarge, n)
	}
	h.PayloadLen = uint32(n)
	hdrLen := h.WireLen()
	b := GetBuf(hdrLen + n)
	if err := h.MarshalInto(b.b); err != nil {
		b.Release()
		return nil, err
	}
	copy(b.b[hdrLen:], prefix)
	copy(b.b[hdrLen+len(prefix):], body)
	b.hdr, b.hasHdr = *h, true
	if hdrLen == wire.HeaderSize { // the trace extension is not on the wire
		b.hdr.TraceID, b.hdr.SpanID, b.hdr.ParentID = 0, 0, 0
	}
	return b, nil
}
