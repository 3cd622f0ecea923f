package inc

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

// In-network synchronization — the §5 plan to "experiment with
// offloading some synchronization and arbitration concerns to the
// programmable network (which now functions somewhat as a memory
// bus)", following NetChain [18] and the optimistic-concurrency offload
// of [16]. A register service is a register array on a switch,
// addressed by an object ID like everything else: frames carrying the
// service's ID route toward the hosting switch, whose Registers program
// executes the atomic operation in the pipeline and replies — fewer
// hops and no server software on the critical path.

// ErrRemote reports a non-OK register status.
var ErrRemote = errors.New("inc: register operation failed")

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

// replyCacheCapacity bounds the at-most-once reply cache.
const replyCacheCapacity = 4096

// reqKey identifies a client request for duplicate suppression.
type reqKey struct {
	src wire.StationID
	seq uint64
}

// Registers is one installed register service: the program attached
// to its host switch, with the register array (the stateful ALUs of a
// programmable switch) and the reply cache it answers from.
type Registers struct {
	ID oid.ID

	dp     Dataplane
	values []uint64
	ops    uint64

	// At-most-once reply cache: a bounded ring of recent requests.
	cache     map[reqKey]backend.Frame
	cacheRing []reqKey
	cacheNext int
}

// InstallRegisters provisions a register service on host and programs
// the fabric so frames for id reach it: every switch in toward gets an
// object route on the given port (its port facing host), and host
// itself gets the service appended to its program list. host needs a
// Station so the replies carry a source.
func InstallRegisters(id oid.ID, host *p4sim.Switch, numRegs int, toward map[*p4sim.Switch]int) (*Registers, error) {
	if host.Station() == 0 {
		return nil, fmt.Errorf("inc: switch %s needs a Station to host registers", host.DevName())
	}
	for sw, port := range toward {
		if sw == host {
			continue
		}
		if err := sw.InstallObjectRoute(wire.ValueOfID(id), port); err != nil {
			return nil, err
		}
	}
	r := newRegisters(id, host, numRegs)
	host.AddIncProgram(r)
	return r, nil
}

func newRegisters(id oid.ID, dp Dataplane, numRegs int) *Registers {
	return &Registers{
		ID: id, dp: dp,
		values:    make([]uint64, numRegs),
		cache:     make(map[reqKey]backend.Frame),
		cacheRing: make([]reqKey, replyCacheCapacity),
	}
}

// Values returns a copy of the register array (for tests).
func (r *Registers) Values() []uint64 {
	return append([]uint64(nil), r.values...)
}

// Ops reports how many operations the service executed (replies
// re-sent from the cache do not count).
func (r *Registers) Ops() uint64 { return r.ops }

// HandleFrame implements p4sim.IncProgram: it claims MsgCtrl requests
// addressed to the service's ID, executes the operation and answers
// from the switch out the ingress port (the requester's path is
// symmetric). Transport-level retransmissions are answered from the
// reply cache so each operation executes at most once (the switch
// analogue of the sequence-number registers NetChain uses). Every
// other frame goes on to the next program and the match-action tables.
func (r *Registers) HandleFrame(ingress int, h *wire.Header, fr backend.Frame) bool {
	if h.Type != wire.MsgCtrl || h.Flags&wire.FlagResponse != 0 || h.Object != r.ID {
		return false
	}
	key := reqKey{src: h.Src, seq: h.Seq}
	if cached, dup := r.cache[key]; dup {
		r.dp.EmitFrame(ingress, cached)
		return true
	}
	r.ops++
	status, value := r.execute(wire.Payload(fr))
	resp := make([]byte, regRespSize)
	resp[0] = status
	binary.BigEndian.PutUint64(resp[1:9], value)
	frame, err := replyFrame(r.dp, h,
		wire.Header{Type: wire.MsgCtrl, Flags: wire.FlagResponse, Object: h.Object}, resp)
	if err != nil {
		return true
	}
	if old := r.cacheRing[r.cacheNext]; old != (reqKey{}) {
		delete(r.cache, old)
	}
	r.cacheRing[r.cacheNext] = key
	r.cacheNext = (r.cacheNext + 1) % replyCacheCapacity
	r.cache[key] = frame
	r.dp.EmitFrame(ingress, frame)
	return true
}

// execute runs one request payload against the register array.
func (r *Registers) execute(payload []byte) (status byte, value uint64) {
	if len(payload) < regReqSize {
		return RegBadOp, 0
	}
	idx := binary.BigEndian.Uint32(payload[1:5])
	a := binary.BigEndian.Uint64(payload[5:13])
	b := binary.BigEndian.Uint64(payload[13:21])
	if uint64(idx) >= uint64(len(r.values)) {
		return RegBadIndex, 0
	}
	value = r.values[idx]
	switch RegOp(payload[0]) {
	case RegRead:
	case RegFetchAdd:
		r.values[idx] += a
	case RegCompareSwap:
		if value != a {
			return RegCASFailed, value
		}
		r.values[idx] = b
	default:
		return RegBadOp, 0
	}
	return RegOK, value
}

// Client issues atomic operations against a register service.
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
		if err == nil && len(p) < regRespSize {
			err = fmt.Errorf("inc: short register reply (%d bytes)", len(p))
		}
		if err != nil {
			cb(0, 0, err)
			return
		}
		status, value := p[0], binary.BigEndian.Uint64(p[1:9])
		if status != RegOK && status != RegCASFailed {
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
