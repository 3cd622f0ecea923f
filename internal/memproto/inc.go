package memproto

import "encoding/binary"

// In-network computation payloads. MsgIncInv and MsgIncAck frames
// carry these fixed-size payloads instead of a full memproto message:
// switches parse them in the pipeline, so they are deliberately flat.
//
//	MsgIncInv: opID(8) | group(8) | claimed(1)
//	MsgIncAck: opID(8) | group(8) | bitmap(8)
//
// opID names the home's invalidation round (acks quote it back) and,
// a tick of the home's directory epoch clock, orders it against grants,
// group names the controller-installed sharer group (0 names no
// group: the first switch consumes it, a host ignores it), and the
// claimed byte marks that an upstream switch already owns ack
// aggregation for this round so no second switch aggregates. The ack bitmap is 0 when the ack
// comes from the sharer named by the frame's Src, and a member-index
// bitmap when a switch coalesced several sharers' acks.
const (
	IncInvSize = 17
	IncAckSize = 24
	// IncInvClaimedOff is the claimed byte's offset within a MsgIncInv
	// payload — switches flip it in flight (the header checksum does
	// not cover the payload).
	IncInvClaimedOff = 16
)

// EncodeIncInv builds a multicast-invalidation payload.
func EncodeIncInv(opID, group uint64, claimed bool) []byte {
	p := make([]byte, IncInvSize)
	binary.BigEndian.PutUint64(p[0:8], opID)
	binary.BigEndian.PutUint64(p[8:16], group)
	if claimed {
		p[IncInvClaimedOff] = 1
	}
	return p
}

// DecodeIncInv parses a multicast-invalidation payload.
func DecodeIncInv(p []byte) (opID, group uint64, claimed, ok bool) {
	if len(p) < IncInvSize {
		return 0, 0, false, false
	}
	return binary.BigEndian.Uint64(p[0:8]), binary.BigEndian.Uint64(p[8:16]),
		p[IncInvClaimedOff] != 0, true
}

// EncodeIncAck builds an invalidation-ack payload.
func EncodeIncAck(opID, group, bitmap uint64) []byte {
	p := make([]byte, IncAckSize)
	binary.BigEndian.PutUint64(p[0:8], opID)
	binary.BigEndian.PutUint64(p[8:16], group)
	binary.BigEndian.PutUint64(p[16:24], bitmap)
	return p
}

// DecodeIncAck parses an invalidation-ack payload.
func DecodeIncAck(p []byte) (opID, group, bitmap uint64, ok bool) {
	if len(p) < IncAckSize {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint64(p[0:8]), binary.BigEndian.Uint64(p[8:16]),
		binary.BigEndian.Uint64(p[16:24]), true
}
