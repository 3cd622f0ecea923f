package p4sim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// Register arrays model the stateful ALUs of a programmable switch:
// the paper proposes "offloading some synchronization and arbitration
// concerns to the programmable network (which now functions somewhat
// as a memory bus)" (§5), in the spirit of NetChain [18] and the
// optimistic-concurrency work [16]. A table entry with ActRegisters
// executes an atomic register operation in the pipeline and the
// switch itself answers — no host on the critical path.

// ActRegisters processes the frame against the switch register array.
const ActRegisters ActionType = 100

// RegOp is an atomic register operation.
type RegOp uint8

// Register operations.
const (
	// RegRead returns the register value.
	RegRead RegOp = iota + 1
	// RegFetchAdd adds A and returns the prior value (sequencers,
	// tickets).
	RegFetchAdd
	// RegCompareSwap sets the register to B if it equals A; returns
	// the prior value (locks, arbitration).
	RegCompareSwap
)

// String names the operation.
func (o RegOp) String() string {
	switch o {
	case RegRead:
		return "read"
	case RegFetchAdd:
		return "fetch-add"
	case RegCompareSwap:
		return "compare-swap"
	}
	return fmt.Sprintf("regop(%d)", uint8(o))
}

// Register request/reply payload layout (inside wire.MsgCtrl frames):
//
//	request:  op(1) | index(4) | operandA(8) | operandB(8)
//	reply:    status(1) | value(8)
const (
	regReqSize  = 21
	regRespSize = 9
)

// Register statuses.
const (
	RegOK        = 0
	RegBadIndex  = 1
	RegBadOp     = 2
	RegCASFailed = 3
)

// EncodeRegisterReq builds a register request payload.
func EncodeRegisterReq(op RegOp, index uint32, a, b uint64) []byte {
	buf := make([]byte, regReqSize)
	buf[0] = byte(op)
	binary.BigEndian.PutUint32(buf[1:5], index)
	binary.BigEndian.PutUint64(buf[5:13], a)
	binary.BigEndian.PutUint64(buf[13:21], b)
	return buf
}

// DecodeRegisterResp parses a register reply payload.
func DecodeRegisterResp(p []byte) (status byte, value uint64, err error) {
	if len(p) < regRespSize {
		return 0, 0, fmt.Errorf("p4sim: short register reply (%d bytes)", len(p))
	}
	return p[0], binary.BigEndian.Uint64(p[1:9]), nil
}

// EnableRegisters provisions n registers (zero-initialized) on the
// switch. The switch must have been configured with a Station so its
// replies carry a source.
func (sw *Switch) EnableRegisters(n int) error {
	if sw.cfg.Station == 0 {
		return fmt.Errorf("p4sim: switch %s needs a Station to host registers", sw.name)
	}
	sw.registers = make([]uint64, n)
	return nil
}

// Registers returns a copy of the register array (for tests).
func (sw *Switch) Registers() []uint64 {
	return append([]uint64(nil), sw.registers...)
}

// regKey identifies a client request for duplicate suppression.
type regKey struct {
	src wire.StationID
	seq uint64
}

// handleRegisters executes the operation and answers from the switch.
// Transport-level retransmissions are answered from a reply cache so
// each operation executes at most once (the switch analogue of the
// sequence-number registers NetChain uses).
func (sw *Switch) handleRegisters(ingress int, h *wire.Header, fr netsim.Frame) {
	key := regKey{src: h.Src, seq: h.Seq}
	if cached, dup := sw.regCache[key]; dup {
		sw.counters.FramesOut++
		sw.net.Sim().Schedule(sw.cfg.PipelineDelay, func() {
			sw.net.Send(sw, ingress, cached)
		})
		return
	}
	sw.counters.RegisterOps++
	payload := wire.Payload(fr)
	status := byte(RegOK)
	var value uint64
	if sw.registers == nil || len(payload) < regReqSize {
		status = RegBadOp
	} else {
		op := RegOp(payload[0])
		idx := binary.BigEndian.Uint32(payload[1:5])
		a := binary.BigEndian.Uint64(payload[5:13])
		b := binary.BigEndian.Uint64(payload[13:21])
		if int(idx) >= len(sw.registers) {
			status = RegBadIndex
		} else {
			switch op {
			case RegRead:
				value = sw.registers[idx]
			case RegFetchAdd:
				value = sw.registers[idx]
				sw.registers[idx] += a
			case RegCompareSwap:
				value = sw.registers[idx]
				if value == a {
					sw.registers[idx] = b
				} else {
					status = RegCASFailed
				}
			default:
				status = RegBadOp
			}
		}
	}

	resp := make([]byte, regRespSize)
	resp[0] = status
	binary.BigEndian.PutUint64(resp[1:9], value)
	sw.replySeq++
	out := wire.Header{
		Type:   wire.MsgCtrl,
		Flags:  wire.FlagResponse,
		Src:    sw.cfg.Station,
		Dst:    h.Src,
		Object: h.Object,
		Seq:    sw.replySeq,
		Ack:    h.Seq,
	}
	frame, err := wire.Encode(&out, resp)
	if err != nil {
		return
	}
	// Remember the reply for retransmitted requests (bounded ring).
	if sw.regCache == nil {
		sw.regCache = make(map[regKey]netsim.Frame, regCacheCapacity)
		sw.regRing = make([]regKey, regCacheCapacity)
	}
	old := sw.regRing[sw.regNext]
	if old != (regKey{}) {
		delete(sw.regCache, old)
	}
	sw.regRing[sw.regNext] = key
	sw.regNext = (sw.regNext + 1) % regCacheCapacity
	sw.regCache[key] = frame

	// Answer out the ingress port: the requester's path is symmetric.
	sw.counters.FramesOut++
	sw.net.Sim().Schedule(sw.cfg.PipelineDelay, func() {
		sw.net.Send(sw, ingress, frame)
	})
}
