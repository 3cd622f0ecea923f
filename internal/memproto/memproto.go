// Package memproto defines the memory-protocol message vocabulary of
// §3.2: the network exposing a bus-like interface whose operations are
// loads and stores against objects in the global address space, plus
// the additional message types cache coherence requires (acquire,
// grant, release, invalidate) in the style of TileLink [1].
//
// Messages ride inside GASP frames of type wire.MsgMem; the object they
// target travels in the GASP header (it is the routing key), so this
// layer carries only the operation, byte range, version, and payload.
// A header is four bytes and six small uvarints (11 bytes on a
// cache-line read); objects move in fragments of MaxFragData. As in
// TileLink, a release moves the object's bytes only when its holder
// changed them (ReleaseData); an unchanged copy's release sends no
// message at all, since the home already holds its bytes and lists its
// holder as a sharer (a clean line's silent downgrade in MESI). A grant
// moves them only to a requester without the home's version
// (GrantData), else it is one data-less message (Grant).
package memproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// OpObjectPush carries (a fragment of) an object's raw bytes.
	OpObjectPush
	// OpAcquire requests a cached copy at Perm (coherence). A non-zero
	// Version offers the copy the requester still holds at that version
	// (TileLink's AcquirePerm); 0 offers none.
	OpAcquire
	// OpGrant responds to OpAcquire with the granted permission. With
	// Data it is TileLink's GrantData: the first fragment of the home's
	// copy. Without (TotalLen 0) it is TileLink's Grant: the copy the
	// request offered is the home's at Version, and the requester keeps
	// its own bytes.
	OpGrant
	// OpRelease pushes a held copy home: TileLink's ReleaseData,
	// fragments of the copy, which the home installs as a new version.
	// A copy unchanged since its exclusive grant is released where it is
	// held, without a message.
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
	"object-push", "acquire", "grant", "release", "release-ack",
	"invalidate", "invalidate-ack",
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

// headerSize bounds the message prefix before Data; all but its first
// four bytes are canonical uvarints (one encoding, one byte below 128):
//
//	op(1) status(1) perm(1) reserved(1)
//	length(≤5) offset(≤10) version(≤10) fragOffset(≤10) totalLen(≤10) dataLen(≤5)
const headerSize = 4 + 5 + 4*binary.MaxVarintLen64 + 5

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
	dst = append(dst, byte(m.Op), byte(m.Status), byte(m.Perm), 0)
	for _, v := range [...]uint64{uint64(m.Length), m.Offset, m.Version, m.FragOffset, m.TotalLen, uint64(len(m.Data))} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// Unmarshal parses a message from b. Data is a zero-copy view into b.
func (m *Msg) Unmarshal(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("%w: %d bytes", ErrShort, len(b))
	}
	if m.Op = Op(b[0]); !m.Op.Valid() {
		return fmt.Errorf("memproto: invalid op %d", b[0])
	}
	m.Status, m.Perm = Status(b[1]), Perm(b[2])
	f, rest := [6]uint64{}, b[4:] // length, offset, version, fragOffset, totalLen, dataLen
	for i := range f {
		v, n := uint64(0), 1
		if len(rest) > 0 && rest[0] < 0x80 {
			v = uint64(rest[0]) // one byte, as most fields are
		} else if v, n = binary.Uvarint(rest); n == 0 {
			return fmt.Errorf("%w: field %d cut at byte %d", ErrShort, i, len(b))
		} else if n < 0 || rest[n-1] == 0 {
			return fmt.Errorf("memproto: field %d not a canonical uvarint", i)
		}
		f[i], rest = v, rest[n:]
	}
	if f[0] > math.MaxUint32 {
		return fmt.Errorf("memproto: length %d above 32 bits", f[0])
	}
	m.Length, m.Offset, m.Version, m.FragOffset, m.TotalLen = uint32(f[0]), f[1], f[2], f[3], f[4]
	if f[5] > uint64(len(rest)) {
		return fmt.Errorf("%w: data length %d in %d-byte buffer", ErrShort, f[5], len(b))
	}
	m.Data = nil
	if f[5] > 0 {
		m.Data = rest[:f[5]]
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

// MaxFragData is the one transfer unit of every bulk path: fragment Data
// on any link, and an rpc chunk. Switches store and forward, so 64 KiB
// crosses as two pipelined frames. A fragment's header is at most 39
// bytes, so the message fits one frame's wire.MaxPayload.
const MaxFragData = 32 << 10

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

// Prefix returns how many bytes from offset 0 arrived without a hole.
func (r *Reassembler) Prefix() uint64 { return r.prefix }
