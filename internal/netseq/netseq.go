// Package netseq offers in-network synchronization services — the §5
// plan to "experiment with offloading some synchronization and
// arbitration concerns to the programmable network (which now
// functions somewhat as a memory bus)", following NetChain [18] and
// the optimistic-concurrency offload of [16].
//
// A service is a register array hosted on a switch, addressed by an
// object ID like everything else in the global space: frames carrying
// the service's ID route toward the hosting switch, whose attached
// program (Service is a p4sim.IncProgram) executes the atomic
// operation in the pipeline and replies — fewer hops and no server
// software on the critical path, compared with the equivalent
// host-based service.
package netseq

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrRemote reports a non-OK register status.
var ErrRemote = errors.New("netseq: register operation failed")

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

// encodeReq builds a register request payload.
func encodeReq(op RegOp, index uint32, a, b uint64) []byte {
	buf := make([]byte, regReqSize)
	buf[0] = byte(op)
	binary.BigEndian.PutUint32(buf[1:5], index)
	binary.BigEndian.PutUint64(buf[5:13], a)
	binary.BigEndian.PutUint64(buf[13:21], b)
	return buf
}

// decodeResp parses a register reply payload.
func decodeResp(p []byte) (status byte, value uint64, err error) {
	if len(p) < regRespSize {
		return 0, 0, fmt.Errorf("netseq: short register reply (%d bytes)", len(p))
	}
	return p[0], binary.BigEndian.Uint64(p[1:9]), nil
}

// replyCacheCapacity bounds the at-most-once reply cache.
const replyCacheCapacity = 4096

// reqKey identifies a client request for duplicate suppression.
type reqKey struct {
	src wire.StationID
	seq uint64
}

// Service is one installed register service: the program attached to
// its host switch, with the register array (the stateful ALUs of a
// programmable switch) and the reply cache it answers from.
type Service struct {
	ID   oid.ID
	Host *p4sim.Switch

	registers []uint64
	ops       uint64

	// At-most-once reply cache: a bounded ring of recent requests.
	cache     map[reqKey]backend.Frame
	cacheRing []reqKey
	cacheNext int
}

// Install provisions a register service on host and programs the
// fabric so frames for id reach it: every switch in toward gets an
// object route on the given port (its port facing host), and host
// itself gets the service attached as its INC program. host needs a
// Station so the replies carry a source. A switch holds one program,
// so a fabric runs either an inc.Engine or a register service on any
// one switch, not both.
func Install(id oid.ID, host *p4sim.Switch, numRegs int, toward map[*p4sim.Switch]int) (*Service, error) {
	if host.Station() == 0 {
		return nil, fmt.Errorf("netseq: switch %s needs a Station to host registers", host.DevName())
	}
	for sw, port := range toward {
		if sw == host {
			continue
		}
		if err := sw.InstallObjectRoute(wire.ValueOfID(id), port); err != nil {
			return nil, err
		}
	}
	s := &Service{
		ID: id, Host: host,
		registers: make([]uint64, numRegs),
		cache:     make(map[reqKey]backend.Frame),
		cacheRing: make([]reqKey, replyCacheCapacity),
	}
	host.SetIncProgram(s)
	return s, nil
}

// Registers returns a copy of the register array (for tests).
func (s *Service) Registers() []uint64 {
	return append([]uint64(nil), s.registers...)
}

// Ops reports how many operations the service executed (replies
// re-sent from the cache do not count).
func (s *Service) Ops() uint64 { return s.ops }

// HandleFrame implements p4sim.IncProgram: it claims MsgCtrl requests
// addressed to the service's ID, executes the operation and answers
// from the switch out the ingress port (the requester's path is
// symmetric). Transport-level retransmissions are answered from the
// reply cache so each operation executes at most once (the switch
// analogue of the sequence-number registers NetChain uses). Every
// other frame goes on to the match-action tables.
func (s *Service) HandleFrame(ingress int, h *wire.Header, fr backend.Frame) bool {
	if h.Type != wire.MsgCtrl || h.Flags&wire.FlagResponse != 0 || h.Object != s.ID {
		return false
	}
	key := reqKey{src: h.Src, seq: h.Seq}
	if cached, dup := s.cache[key]; dup {
		s.Host.EmitFrame(ingress, cached)
		return true
	}
	s.ops++
	status, value := s.execute(wire.Payload(fr))
	resp := make([]byte, regRespSize)
	resp[0] = status
	binary.BigEndian.PutUint64(resp[1:9], value)
	out := wire.Header{
		Type: wire.MsgCtrl, Flags: wire.FlagResponse,
		Src: s.Host.Station(), Dst: h.Src, Object: h.Object,
		Seq: s.Host.NextReplySeq(), Ack: h.Seq,
	}
	frame, err := wire.Encode(&out, resp)
	if err != nil {
		return true
	}
	if old := s.cacheRing[s.cacheNext]; old != (reqKey{}) {
		delete(s.cache, old)
	}
	s.cacheRing[s.cacheNext] = key
	s.cacheNext = (s.cacheNext + 1) % replyCacheCapacity
	s.cache[key] = frame
	s.Host.EmitFrame(ingress, frame)
	return true
}

// execute runs one request payload against the register array.
func (s *Service) execute(payload []byte) (status byte, value uint64) {
	if len(payload) < regReqSize {
		return RegBadOp, 0
	}
	idx := binary.BigEndian.Uint32(payload[1:5])
	a := binary.BigEndian.Uint64(payload[5:13])
	b := binary.BigEndian.Uint64(payload[13:21])
	if uint64(idx) >= uint64(len(s.registers)) {
		return RegBadIndex, 0
	}
	value = s.registers[idx]
	switch RegOp(payload[0]) {
	case RegRead:
	case RegFetchAdd:
		s.registers[idx] += a
	case RegCompareSwap:
		if value != a {
			return RegCASFailed, value
		}
		s.registers[idx] = b
	default:
		return RegBadOp, 0
	}
	return RegOK, value
}

// Client issues atomic operations against a service.
type Client struct {
	ep      *transport.Endpoint
	service oid.ID
}

// NewClient binds a client to a service ID over an endpoint.
func NewClient(ep *transport.Endpoint, service oid.ID) *Client {
	return &Client{ep: ep, service: service}
}

// do sends one register operation and decodes the reply; a status
// other than OK or CAS-failed (which only CompareSwap can draw) is an
// ErrRemote.
func (c *Client) do(op RegOp, index uint32, a, b uint64,
	cb func(status byte, value uint64, err error)) {

	h := wire.Header{
		Type:   wire.MsgCtrl,
		Flags:  wire.FlagRouteOnObject,
		Dst:    wire.StationAny,
		Object: c.service,
	}
	c.ep.Request(h, encodeReq(op, index, a, b), 0, func(_ *wire.Header, p []byte, err error) {
		if err != nil {
			cb(0, 0, err)
			return
		}
		status, value, err := decodeResp(p)
		if err == nil && status != RegOK && status != RegCASFailed {
			err = fmt.Errorf("%w: status %d", ErrRemote, status)
		}
		cb(status, value, err)
	})
}

// FetchAdd atomically adds delta to register index, returning the
// prior value — a line-rate sequencer.
func (c *Client) FetchAdd(index uint32, delta uint64, cb func(old uint64, err error)) {
	c.do(RegFetchAdd, index, delta, 0, func(_ byte, v uint64, err error) { cb(v, err) })
}

// Read returns register index's value.
func (c *Client) Read(index uint32, cb func(value uint64, err error)) {
	c.do(RegRead, index, 0, 0, func(_ byte, v uint64, err error) { cb(v, err) })
}

// CompareSwap installs next if register index currently holds expect;
// ok reports success and cur the value observed — in-network locks and
// arbitration.
func (c *Client) CompareSwap(index uint32, expect, next uint64,
	cb func(ok bool, cur uint64, err error)) {

	c.do(RegCompareSwap, index, expect, next, func(status byte, v uint64, err error) {
		cb(err == nil && status == RegOK, v, err)
	})
}
