// Package wire defines GASP, the Global Address Space Protocol frame
// format: the "light-weight form of reliable transmission" the paper
// argues for in §3.2, carrying a 128-bit object identifier as the
// routing key so switches forward on data identity rather than host
// addresses.
//
// The layout is a fixed 40-byte header, five 64-bit words, followed by
// a payload. All multi-byte fields are big-endian (network order).
// Encoding and decoding follow the gopacket DecodingLayer style: decode
// parses a header in place with no allocation; the payload is a
// zero-copy view.
//
//	offset size field
//	0      2    magic (0x6A50)
//	2      1    version (3)
//	3      1    message type
//	4      2    flags
//	6      2    payload length
//	8      4    header checksum (see checksum; computed with this field zero)
//	12     4    sequence number, low 32 bits
//	16     4    acknowledgment number, low 32 bits (low-water mark under FlagLowWater)
//	20     2    source station
//	22     2    destination station (StationBroadcast floods)
//	24     16   object ID (routing key; may be zero)
//
// When FlagTraced is set the header grows by a 24-byte trace
// extension, so in-band trace context crosses every hop without a
// side channel:
//
//	40     8    trace ID
//	48     8    span ID (the sender's current span)
//	56     8    parent span ID
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/oid"
)

// Frame geometry.
const (
	Magic = 0x6A50
	// Version 3 has the 40-byte header; version 2's was 64 bytes, and
	// version 1's checksum byte-wise FNV-32a. Both are refused.
	Version    = 3
	HeaderSize = 40
	// TracedHeaderSize is the header size with the 24-byte trace
	// extension (trace, span and parent span IDs), present iff FlagTraced.
	TracedHeaderSize = HeaderSize + 24
	// MaxPayload bounds a single frame's payload, what its 16-bit
	// length field holds; the transport fragments larger transfers.
	MaxPayload = 1<<16 - 1
)

// StationID identifies an end station (host NIC) for unicast replies.
// Routing decisions in the fabric are made on object IDs; station IDs
// exist so a responder can address the requester directly.
type StationID uint16

// StationIDSize is the encoded size of a StationID in bytes, for
// payloads that carry station IDs outside the frame header.
const StationIDSize = 2

// StationBroadcast floods a frame through the fabric.
const StationBroadcast StationID = ^StationID(0)

// StationAny marks a frame routed purely on its object ID: the fabric
// (not the sender) picks the destination, and whichever station the
// fabric delivers it to should accept it.
const StationAny StationID = 0

// String formats a station ID.
func (s StationID) String() string {
	if s == StationBroadcast {
		return "bcast"
	}
	return fmt.Sprintf("st%d", uint16(s))
}

// MsgType is the top-level message class.
type MsgType uint8

// Message classes. Memory-protocol operations (package memproto) ride
// inside MsgMem payloads; RPC baseline messages ride inside MsgRPC.
const (
	MsgInvalid MsgType = iota
	// MsgHello announces a station to its first-hop switch.
	MsgHello
	// MsgAnnounce advertises object ownership to the controller.
	MsgAnnounce
	// MsgAnnounceAck confirms rule installation.
	MsgAnnounceAck
	// MsgDiscover broadcasts an object-location query (E2E scheme).
	MsgDiscover
	// MsgDiscoverReply answers a MsgDiscover from the object's holder.
	MsgDiscoverReply
	// MsgMem carries a memory-protocol operation (loads/stores, §3.2).
	MsgMem
	// MsgAck is a pure transport acknowledgment.
	MsgAck
	// MsgRPC carries baseline RPC requests and responses.
	MsgRPC
	// msgRetired keeps the value of a type no frame carries any more
	// (controller multicast-group installs), so the types after it keep
	// theirs. It is not Valid.
	msgRetired
	// MsgLocate asks the controller where an object lives after a
	// route-on-object delivery failure (stale or wiped fabric rules).
	MsgLocate
	// MsgLocateReply answers a MsgLocate with the owner's station and
	// confirms the object's fabric rules have been re-installed.
	MsgLocateReply
	// MsgRaft carries control-plane consensus traffic (RequestVote,
	// AppendEntries and their replies) between controller replicas.
	MsgRaft

	msgTypeCount
)

// NumMsgTypes is the number of message type values (MsgInvalid and
// the retired one included) — the size dispatch tables indexed by
// MsgType need.
const NumMsgTypes = int(msgTypeCount)

var msgNames = [...]string{
	"invalid", "hello", "announce", "announce-ack", "discover",
	"discover-reply", "mem", "ack", "rpc", "retired", "locate",
	"locate-reply", "raft",
}

// String names the message type.
func (m MsgType) String() string {
	if int(m) < len(msgNames) {
		return msgNames[m]
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// Valid reports whether m is a defined message type.
func (m MsgType) Valid() bool { return m > MsgInvalid && m < msgTypeCount && m != msgRetired }

// Flags modify frame handling.
type Flags uint16

const (
	// FlagReliable requests transport acknowledgment.
	FlagReliable Flags = 1 << iota
	// FlagRouteOnObject asks the fabric to forward using the object ID
	// (ignoring the destination station).
	FlagRouteOnObject
	// FlagResponse marks a reply in a request/response exchange.
	FlagResponse
	// FlagTraced indicates the header carries the 24-byte trace
	// extension (TraceID/SpanID/ParentID) after the fixed 40 bytes.
	FlagTraced
	// FlagLowWater says Ack holds the sender's low-water mark: no frame
	// it numbered below Ack will be sent again. A frame that is neither
	// a response nor an ack carries it, so a responder can release the
	// replies it kept for the sender's older requests.
	FlagLowWater
)

// Errors returned by frame parsing.
var (
	ErrTruncated   = errors.New("wire: frame truncated")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: header checksum mismatch")
	ErrBadLength   = errors.New("wire: inconsistent lengths")
	ErrTooLarge    = errors.New("wire: payload exceeds MaxPayload")
	ErrRange       = errors.New("wire: sequence or ack number above 32 bits")
)

// Header is a decoded GASP header. Seq and Ack are what the frame
// carries, below 1<<32; the transport widens them on receipt.
type Header struct {
	Type       MsgType
	Flags      Flags
	PayloadLen uint32
	Src        StationID
	Dst        StationID
	Object     oid.ID
	Seq        uint64
	Ack        uint64

	// Trace context, carried on the wire iff FlagTraced is set.
	// SpanID names the span covering this frame's transmission;
	// ParentID is that span's parent on the sending side.
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
}

// WireLen returns the encoded header length implied by the flags:
// HeaderSize, or TracedHeaderSize when FlagTraced is set.
func (h *Header) WireLen() int {
	if h.Flags&FlagTraced != 0 {
		return TracedHeaderSize
	}
	return HeaderSize
}

// checksum is the header checksum: the header's big-endian 64-bit
// words (5, or 8 with the trace extension) folded into a 64-bit state
// by xor, a multiply by an odd constant and an xor-shift that brings the
// product's high half — the half every input bit reaches — down into the
// low one, which at the end is the sum. The checksum field, the high
// half of word 1, reads as zero. Each step is a bijection of the state, so
// headers that differ in one word reach different states; only the
// truncation to 32 bits can collide. Against corruption, not forgery.
func checksum(hdr []byte) uint32 {
	h := uint64(len(hdr))
	for i := 0; i+8 <= len(hdr); i += 8 {
		w := binary.BigEndian.Uint64(hdr[i:])
		if i == 8 {
			w &= 0xFFFFFFFF
		}
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return uint32(h)
}

// MarshalInto writes the header into b, which must be at least
// h.WireLen() bytes. It computes the checksum.
func (h *Header) MarshalInto(b []byte) error {
	hdrLen := h.WireLen()
	if len(b) < hdrLen {
		return fmt.Errorf("%w: %d bytes for header", ErrTruncated, len(b))
	}
	if h.PayloadLen > MaxPayload {
		return fmt.Errorf("%w: %d", ErrTooLarge, h.PayloadLen)
	}
	if (h.Seq|h.Ack)>>32 != 0 {
		return fmt.Errorf("%w: seq %d, ack %d", ErrRange, h.Seq, h.Ack)
	}
	binary.BigEndian.PutUint16(b[0:2], Magic)
	b[2] = Version
	b[3] = byte(h.Type)
	binary.BigEndian.PutUint16(b[4:6], uint16(h.Flags))
	binary.BigEndian.PutUint16(b[6:8], uint16(h.PayloadLen))
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Seq))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Ack))
	binary.BigEndian.PutUint16(b[20:22], uint16(h.Src))
	binary.BigEndian.PutUint16(b[22:24], uint16(h.Dst))
	h.Object.PutBytes(b[24:40])
	if hdrLen == TracedHeaderSize {
		binary.BigEndian.PutUint64(b[40:48], h.TraceID)
		binary.BigEndian.PutUint64(b[48:56], h.SpanID)
		binary.BigEndian.PutUint64(b[56:64], h.ParentID)
	}
	binary.BigEndian.PutUint32(b[8:12], checksum(b[:hdrLen]))
	return nil
}

// Encode allocates and returns a complete frame (header + payload).
func Encode(h *Header, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d", ErrTooLarge, len(payload))
	}
	h.PayloadLen = uint32(len(payload))
	hdrLen := h.WireLen()
	fr := make([]byte, hdrLen+len(payload))
	if err := h.MarshalInto(fr); err != nil {
		return nil, err
	}
	copy(fr[hdrLen:], payload)
	return fr, nil
}

// DecodeFrom parses a header from the start of fr, validating magic,
// version, checksum, and length consistency. It does not copy.
func (h *Header) DecodeFrom(fr []byte) error {
	if len(fr) < HeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(fr))
	}
	if binary.BigEndian.Uint16(fr[0:2]) != Magic {
		return ErrBadMagic
	}
	if fr[2] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, fr[2])
	}
	h.Flags = Flags(binary.BigEndian.Uint16(fr[4:6]))
	hdrLen := h.WireLen()
	if len(fr) < hdrLen {
		return fmt.Errorf("%w: %d bytes for %d-byte header", ErrTruncated, len(fr), hdrLen)
	}
	if checksum(fr[:hdrLen]) != binary.BigEndian.Uint32(fr[8:12]) {
		return ErrBadChecksum
	}
	h.Type = MsgType(fr[3])
	h.PayloadLen = uint32(binary.BigEndian.Uint16(fr[6:8]))
	if hdrLen+int(h.PayloadLen) > len(fr) {
		return fmt.Errorf("%w: payload length %d in %d-byte frame", ErrBadLength, h.PayloadLen, len(fr))
	}
	h.Seq = uint64(binary.BigEndian.Uint32(fr[12:16]))
	h.Ack = uint64(binary.BigEndian.Uint32(fr[16:20]))
	h.Src = StationID(binary.BigEndian.Uint16(fr[20:22]))
	h.Dst = StationID(binary.BigEndian.Uint16(fr[22:24]))
	h.Object, _ = oid.FromBytes(fr[24:40]) // 16 bytes, never refused
	if hdrLen == TracedHeaderSize {
		h.TraceID = binary.BigEndian.Uint64(fr[40:48])
		h.SpanID = binary.BigEndian.Uint64(fr[48:56])
		h.ParentID = binary.BigEndian.Uint64(fr[56:64])
	} else {
		h.TraceID, h.SpanID, h.ParentID = 0, 0, 0
	}
	return nil
}

// Payload returns a zero-copy view of the payload of a frame whose
// header has already been validated.
func Payload(fr []byte) []byte {
	if len(fr) < HeaderSize {
		return nil
	}
	hdrLen := (&Header{Flags: Flags(binary.BigEndian.Uint16(fr[4:6]))}).WireLen()
	end := min(hdrLen+int(binary.BigEndian.Uint16(fr[6:8])), len(fr))
	if end <= hdrLen {
		return nil
	}
	return fr[hdrLen:end]
}

// PeekDst extracts the destination station from a frame without a
// full header decode — the per-frame fast path a backend uses to route
// (the realnet UDP backend picks the peer socket from it). ok is
// false for frames too short to carry a header.
func PeekDst(fr []byte) (StationID, bool) {
	if len(fr) < HeaderSize {
		return 0, false
	}
	return StationID(binary.BigEndian.Uint16(fr[22:24])), true
}

// TraceContext extracts the trace extension from a frame without a
// full header decode — the per-hop fast path for switch and link
// instrumentation. ok is false for untraced or too-short frames.
func TraceContext(fr []byte) (traceID, spanID, parentID uint64, ok bool) {
	if len(fr) < TracedHeaderSize ||
		Flags(binary.BigEndian.Uint16(fr[4:6]))&FlagTraced == 0 {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint64(fr[40:48]),
		binary.BigEndian.Uint64(fr[48:56]),
		binary.BigEndian.Uint64(fr[56:64]),
		true
}

// Field identifies a header field for match-action pipelines and
// packet subscriptions (the "user-defined packet formats" of Packet
// Subscriptions [17]).
type Field uint8

// Matchable header fields.
const (
	FieldType Field = iota
	FieldFlags
	FieldSrc
	FieldDst
	FieldObject
	FieldSeq
	FieldTrace // the trace extension's trace ID (0 untraced), the one 64-bit ID field
)

var fieldNames = [...]string{"type", "flags", "src", "dst", "object", "seq", "trace"}

// String names the field.
func (f Field) String() string {
	if int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// Width returns the field's width in bits — what the switch's table
// key consumes (the §3.2 capacity experiment hinges on FieldObject
// being 128 bits wide).
func (f Field) Width() int {
	switch f {
	case FieldType:
		return 8
	case FieldFlags:
		return 16
	case FieldSrc, FieldDst:
		return 16
	case FieldSeq:
		return 32
	case FieldTrace:
		return 64
	case FieldObject:
		return 128
	default:
		return 0
	}
}

// Value is a field value up to 128 bits wide.
type Value struct {
	Hi, Lo uint64
}

// ValueOf builds a Value from a uint64.
func ValueOf(v uint64) Value { return Value{Lo: v} }

// ValueOfID builds a Value from an object ID.
func ValueOfID(id oid.ID) Value { return Value{Hi: id.Hi, Lo: id.Lo} }

// Extract pulls a field's value out of a decoded header.
func (h *Header) Extract(f Field) (Value, error) {
	switch f {
	case FieldType:
		return ValueOf(uint64(h.Type)), nil
	case FieldFlags:
		return ValueOf(uint64(h.Flags)), nil
	case FieldSrc:
		return ValueOf(uint64(h.Src)), nil
	case FieldDst:
		return ValueOf(uint64(h.Dst)), nil
	case FieldObject:
		return ValueOfID(h.Object), nil
	case FieldSeq:
		return ValueOf(h.Seq), nil
	case FieldTrace:
		return ValueOf(h.TraceID), nil
	default:
		return Value{}, fmt.Errorf("wire: unknown field %d", f)
	}
}
