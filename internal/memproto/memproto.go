// Package memproto defines the memory-protocol message vocabulary of
// §3.2: the network exposing a bus-like interface whose operations are
// loads and stores against objects in the global address space, plus
// the additional message types cache coherence requires (acquire,
// probe, release, invalidate) in the style of TileLink [1].
//
// Messages ride inside GASP frames of type wire.MsgMem; the object they
// target travels in the GASP header (it is the routing key), so this
// layer carries only the operation, byte range, version, and payload.
package memproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/backend"
)

// CacheLine is the smallest transfer unit, matching the "payload size
// is usually a cache line" observation in §3.2.
const CacheLine = 64

// Op is a memory-protocol operation.
type Op uint8

// Operations. Requests flow toward an object's holder; responses flow
// back to the requester.
const (
	OpInvalid Op = iota
	// OpReadReq asks for [Offset, Offset+Length) of the object.
	OpReadReq
	// OpReadResp returns the requested bytes.
	OpReadResp
	// OpWriteReq writes Data at Offset.
	OpWriteReq
	// OpWriteResp acknowledges a write.
	OpWriteResp
	// OpObjectReq asks for the whole object (byte-copy movement).
	OpObjectReq
	// OpObjectPush carries (a fragment of) an object's raw bytes.
	OpObjectPush
	// OpAcquire requests a cached copy at Perm (coherence).
	OpAcquire
	// OpGrant responds to OpAcquire with data and granted permission.
	OpGrant
	// OpProbe asks a copy holder to downgrade/invalidate.
	OpProbe
	// OpProbeAck acknowledges a probe (with dirty data if demoting
	// from exclusive).
	OpProbeAck
	// OpRelease returns a dirty copy to the home.
	OpRelease
	// OpReleaseAck acknowledges a release.
	OpReleaseAck
	// OpInvalidate tells sharers to drop their copies.
	OpInvalidate
	// OpInvalidateAck acknowledges an invalidation.
	OpInvalidateAck

	opCount
)

var opNames = [...]string{
	"invalid", "read-req", "read-resp", "write-req", "write-resp",
	"object-req", "object-push", "acquire", "grant", "probe",
	"probe-ack", "release", "release-ack", "invalidate", "invalidate-ack",
}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o > OpInvalid && o < opCount }

// Status reports the outcome of a request.
type Status uint8

// Statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusDenied
	StatusConflict
	StatusRange
)

var statusNames = [...]string{"ok", "not-found", "denied", "conflict", "range"}

// String names the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Err converts a non-OK status into an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return fmt.Errorf("memproto: remote status %s", s)
}

// Perm is a coherence permission level.
type Perm uint8

// Permissions, ordered so higher grants more.
const (
	PermNone Perm = iota
	PermShared
	PermExclusive
)

var permNames = [...]string{"none", "shared", "exclusive"}

// String names the permission.
func (p Perm) String() string {
	if int(p) < len(permNames) {
		return permNames[p]
	}
	return fmt.Sprintf("perm(%d)", uint8(p))
}

// headerSize is the fixed message prefix before Data.
//
//	0  op(1) status(1) perm(1) reserved(1)
//	4  length(4)       requested byte count
//	8  offset(8)       byte offset in the object
//	16 version(8)      object version for coherence fencing
//	24 fragOffset(8)   offset of Data within a multi-frame transfer
//	32 totalLen(8)     total bytes of the whole transfer
//	40 dataLen(4)
//	44 data...
const headerSize = 44

// ErrShort reports a truncated message buffer.
var ErrShort = errors.New("memproto: message truncated")

// Msg is one memory-protocol message.
type Msg struct {
	Op      Op
	Status  Status
	Perm    Perm
	Length  uint32
	Offset  uint64
	Version uint64
	// FragOffset and TotalLen describe multi-frame object transfers:
	// Data covers [FragOffset, FragOffset+len(Data)) of TotalLen bytes.
	FragOffset uint64
	TotalLen   uint64
	Data       []byte
}

// Marshal appends the encoded message to dst and returns the result.
func (m *Msg) Marshal(dst []byte) []byte {
	return append(m.MarshalHeader(dst), m.Data...)
}

// MarshalHeader appends everything of the message but Data (whose
// length it records) to dst, for a sender that hands the transport
// this prefix and Data apart.
func (m *Msg) MarshalHeader(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	b := dst[off:]
	b[0] = byte(m.Op)
	b[1] = byte(m.Status)
	b[2] = byte(m.Perm)
	b[3] = 0
	binary.BigEndian.PutUint32(b[4:8], m.Length)
	binary.BigEndian.PutUint64(b[8:16], m.Offset)
	binary.BigEndian.PutUint64(b[16:24], m.Version)
	binary.BigEndian.PutUint64(b[24:32], m.FragOffset)
	binary.BigEndian.PutUint64(b[32:40], m.TotalLen)
	binary.BigEndian.PutUint32(b[40:44], uint32(len(m.Data)))
	return dst
}

// Unmarshal parses a message from b. Data is a zero-copy view into b.
func (m *Msg) Unmarshal(b []byte) error {
	if len(b) < headerSize {
		return fmt.Errorf("%w: %d bytes", ErrShort, len(b))
	}
	m.Op = Op(b[0])
	if !m.Op.Valid() {
		return fmt.Errorf("memproto: invalid op %d", b[0])
	}
	m.Status = Status(b[1])
	m.Perm = Perm(b[2])
	m.Length = binary.BigEndian.Uint32(b[4:8])
	m.Offset = binary.BigEndian.Uint64(b[8:16])
	m.Version = binary.BigEndian.Uint64(b[16:24])
	m.FragOffset = binary.BigEndian.Uint64(b[24:32])
	m.TotalLen = binary.BigEndian.Uint64(b[32:40])
	dataLen := binary.BigEndian.Uint32(b[40:44])
	if int(dataLen) > len(b)-headerSize {
		return fmt.Errorf("%w: data length %d in %d-byte buffer", ErrShort, dataLen, len(b))
	}
	if dataLen == 0 {
		m.Data = nil
	} else {
		m.Data = b[headerSize : headerSize+int(dataLen)]
	}
	return nil
}

// FragDataFor returns the largest fragment Data length whose encoded
// message fits in frameMax bytes (the room a link leaves for the
// memproto payload after the GASP header). Results are clamped to
// [1, MaxFragData].
func FragDataFor(frameMax int) int {
	n := frameMax - headerSize
	if n > MaxFragData {
		return MaxFragData
	}
	if n < 1 {
		return 1
	}
	return n
}

// MaxFragData is the largest Data slice that fits a single GASP frame
// alongside this header.
const MaxFragData = 64*1024 - headerSize

// MaxTransferLen is the largest TotalLen a Reassembler accepts: the
// wire's 64-bit field sizes an allocation at the receiver.
const MaxTransferLen = 1 << 28

// StallTimeout bounds the gap between fragments (or rpc chunks) of a
// partially received transfer, which no request timeout covers once its
// first fragment has landed: no progress for this long fails a fetch
// with a retryable error, or drops a release or a half-received call.
const StallTimeout = 10 * backend.Millisecond

// NextFragment returns the OpObjectPush fragment of raw that starts at
// off — at most maxData bytes of payload (maxData <= MaxFragData; 0
// selects MaxFragData), carrying the object version — and the offset
// of the one after it; the fragment is the last when that reaches
// len(raw). Data is a slice of raw, so a sender that encodes fragments
// as it takes them copies raw once, into the frames.
func NextFragment(raw []byte, version uint64, maxData, off int) (Msg, int) {
	if maxData <= 0 || maxData > MaxFragData {
		maxData = MaxFragData
	}
	end := min(off+maxData, len(raw))
	return Msg{
		Op:         OpObjectPush,
		Version:    version,
		FragOffset: uint64(off),
		TotalLen:   uint64(len(raw)),
		Data:       raw[off:end],
	}, end
}

// Fragment splits an object-sized transfer into its fragments (one,
// empty, for empty raw).
func Fragment(raw []byte, version uint64, maxData int) []Msg {
	var out []Msg
	for off := 0; ; {
		var m Msg
		m, off = NextFragment(raw, version, maxData, off)
		out = append(out, m)
		if off >= len(raw) {
			return out
		}
	}
}

// frRange is a covered byte span [start, end) of a transfer.
type frRange struct{ start, end uint64 }

// Reassembler collects OpObjectPush fragments into a whole object.
// Completion is judged by covered bytes — [0, prefix) has arrived, and
// spans records what arrived beyond a hole — so duplicated or
// overlapping fragments cannot complete a transfer that still has
// holes, and fragments carrying a different object version than the
// transfer's first fragment are rejected. Fragments arriving in order
// only advance prefix: the region is then the one allocation, or none
// when the transfer lands in a region handed to Into.
type Reassembler struct {
	buf     []byte
	prefix  uint64
	spans   []frRange // sorted, disjoint, each starting beyond prefix
	total   uint64
	started bool
	reused  bool
	version uint64
}

// Into offers r, before its first fragment, a region to reassemble into:
// used when its capacity covers the transfer, which then overwrites every
// byte Bytes returns. Nothing else may read the region from then on.
func (r *Reassembler) Into(region []byte) { r.buf = region[:0] }

// cover marks [start, end) as received.
func (r *Reassembler) cover(start, end uint64) {
	if start >= end {
		return
	}
	if start > r.prefix {
		// Beyond a hole. Spans strictly before the new one stay;
		// [i, j) overlap or abut it and are merged into it.
		i := 0
		for i < len(r.spans) && r.spans[i].end < start {
			i++
		}
		j := i
		for ; j < len(r.spans) && r.spans[j].start <= end; j++ {
			start = min(start, r.spans[j].start)
			end = max(end, r.spans[j].end)
		}
		r.spans = slices.Replace(r.spans, i, j, frRange{start, end})
		return
	}
	r.prefix = max(r.prefix, end)
	// The prefix may have reached spans that were waiting behind it.
	k := 0
	for ; k < len(r.spans) && r.spans[k].start <= r.prefix; k++ {
		r.prefix = max(r.prefix, r.spans[k].end)
	}
	r.spans = r.spans[k:]
}

// Add ingests a fragment. It returns true when the transfer is
// complete; call Bytes for the result.
func (r *Reassembler) Add(m *Msg) (bool, error) {
	if m.Op != OpObjectPush {
		return false, fmt.Errorf("memproto: reassembling non-push op %s", m.Op)
	}
	if !r.started {
		r.version = m.Version
	} else if m.Version != r.version {
		return false, fmt.Errorf("memproto: fragment version %d != transfer version %d", m.Version, r.version)
	}
	return r.AddAt(m.FragOffset, m.TotalLen, m.Data)
}

// AddAt ingests data as bytes [off, off+len(data)) of a transfer of
// total bytes: what a fragment is once its framing is checked, and the
// entry point for other chunked protocols (rpc bodies). All three
// numbers may come off the wire, so the overflow check and the cap come
// before the allocation the first fragment sizes.
func (r *Reassembler) AddAt(off, total uint64, data []byte) (bool, error) {
	end := off + uint64(len(data))
	if end < off || end > total {
		return false, fmt.Errorf("memproto: fragment [%d,+%d) beyond total %d", off, len(data), total)
	}
	switch {
	case !r.started:
		if total > MaxTransferLen {
			return false, fmt.Errorf("memproto: transfer total %d above the limit %d", total, MaxTransferLen)
		}
		r.total, r.started = total, true
		if r.buf != nil && uint64(cap(r.buf)) >= total {
			r.buf, r.reused = r.buf[:total], true
			copy(r.buf[off:], data)
		} else if off == 0 {
			// make+copy from a plain local compiles to makeslicecopy,
			// which does not zero the bytes the copy is about to overwrite.
			b := make([]byte, int(total))
			copy(b, data)
			r.buf = b
		} else {
			r.buf = make([]byte, int(total))
			copy(r.buf[off:], data)
		}
	case total != r.total:
		return false, fmt.Errorf("memproto: fragment total %d != transfer total %d", total, r.total)
	default:
		copy(r.buf[off:], data)
	}
	r.cover(off, end)
	return r.prefix >= r.total, nil
}

// Bytes returns the reassembled object bytes.
func (r *Reassembler) Bytes() []byte { return r.buf }

// Reused reports whether the transfer landed in the region Into offered.
func (r *Reassembler) Reused() bool { return r.reused }

// Version returns the version carried by the transfer.
func (r *Reassembler) Version() uint64 { return r.version }

// Started reports whether any fragment has been ingested.
func (r *Reassembler) Started() bool { return r.started }

// Prefix returns how many bytes from offset 0 arrived without a hole.
func (r *Reassembler) Prefix() uint64 { return r.prefix }
