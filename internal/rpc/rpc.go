// Package rpc is the baseline the paper argues against: traditional
// location- and compute-centric remote procedure calls. The caller
// names an explicit endpoint (a station), arguments and results are
// serialized in their entirety and shipped by value, and reference
// data must already live on the executor (§1, §2).
//
// It is implemented over the same simulated network and lightweight
// transport as the data-centric stack so the Figure 1 and §2
// comparisons are apples-to-apples. Large arguments and results are
// chunked across frames, with serialization costs paid in full on
// both sides.
package rpc

import (
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/memproto"
	"repro/internal/serde"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Errors surfaced by calls.
var (
	ErrNoMethod  = errors.New("rpc: no such method")
	ErrRemote    = errors.New("rpc: remote error")
	ErrTransport = errors.New("rpc: transport failure")
)

// message kinds.
const (
	kindRequest  = 1
	kindResponse = 2
)

// statuses.
const (
	statusOK       = 0
	statusAppError = 1
	statusNoMethod = 2
)

// chunkData is a call or result frame's payload: memproto's transfer unit.
const chunkData = memproto.MaxFragData

// Handler serves one method: args in, result out.
type Handler func(args []byte) ([]byte, error)

// AsyncHandler serves one method whose work completes later (e.g. it
// must fetch objects first); it must call reply exactly once.
type AsyncHandler func(args []byte, reply func(result []byte, err error))

// envelope is the wire encoding of one RPC frame.
type envelope struct {
	kind    uint8
	status  uint8
	callID  uint64
	method  string
	fragOff uint64
	total   uint64
	data    []byte
}

func (ev *envelope) marshal() []byte {
	e := serde.NewEncoder(64 + len(ev.data))
	e.PutUvarint(uint64(ev.kind))
	e.PutUvarint(uint64(ev.status))
	e.PutUint64(ev.callID)
	e.PutString(ev.method)
	e.PutUint64(ev.fragOff)
	e.PutUint64(ev.total)
	e.PutBytes(ev.data)
	return e.Bytes()
}

func (ev *envelope) unmarshal(b []byte) error {
	d := serde.NewDecoder(b)
	ev.kind = uint8(d.Uvarint())
	ev.status = uint8(d.Uvarint())
	ev.callID = d.Uint64()
	ev.method = d.String()
	ev.fragOff = d.Uint64()
	ev.total = d.Uint64()
	ev.data = d.Bytes()
	return d.Err()
}

// Counters aggregates RPC statistics.
type Counters struct {
	CallsSent    uint64
	CallsServed  uint64
	AppErrors    uint64
	NoMethod     uint64
	BytesArgs    uint64
	BytesResults uint64
}

// Server dispatches registered methods.
type Server struct {
	ep       *transport.Endpoint
	handlers map[string]Handler
	async    map[string]AsyncHandler
	inbound  map[callKey]*inboundCall
	swept    backend.Time // when inbound was last swept for stalled calls
	counters Counters
}

type callKey struct {
	src wire.StationID
	id  uint64
}

// inboundCall is a call whose arguments are still arriving.
type inboundCall struct {
	re   memproto.Reassembler
	last backend.Time // when its last chunk arrived
}

// NewServer creates a server over an endpoint.
func NewServer(ep *transport.Endpoint) *Server {
	return &Server{
		ep:       ep,
		handlers: make(map[string]Handler),
		async:    make(map[string]AsyncHandler),
		inbound:  make(map[callKey]*inboundCall),
	}
}

// expire drops the half-received calls that have made no progress for
// memproto.StallTimeout, the rule a home drops a stalled release by. It
// runs when a chunk arrives, at most once a window, rather than on a
// timer: a timer would take event sequence numbers from the schedule.
func (s *Server) expire(now backend.Time) {
	if now.Sub(s.swept) < memproto.StallTimeout {
		return
	}
	s.swept = now
	for k, c := range s.inbound {
		if now.Sub(c.last) >= memproto.StallTimeout {
			delete(s.inbound, k)
		}
	}
}

// Register installs a handler; re-registering a name replaces it.
func (s *Server) Register(method string, h Handler) {
	s.handlers[method] = h
}

// RegisterAsync installs an asynchronous handler.
func (s *Server) RegisterAsync(method string, h AsyncHandler) {
	s.async[method] = h
}

// Counters returns a copy of the server statistics.
func (s *Server) Counters() Counters { return s.counters }

// HandleFrame consumes MsgRPC request frames; returns true if consumed.
func (s *Server) HandleFrame(h *wire.Header, payload []byte) bool {
	if h.Type != wire.MsgRPC {
		return false
	}
	var ev envelope
	if err := ev.unmarshal(payload); err != nil {
		return true
	}
	if ev.kind != kindRequest {
		return false // a response; let a client on the same station take it
	}
	now := s.ep.Clock().Now()
	s.expire(now)
	key := callKey{src: h.Src, id: ev.callID}
	c, ok := s.inbound[key]
	if !ok {
		_, sync := s.handlers[ev.method]
		_, async := s.async[ev.method]
		if !sync && !async {
			// Reassemble nothing for a method this server lacks: answer
			// the chunk that ends the body, the caller's request, and drop
			// any other.
			if ev.fragOff+uint64(len(ev.data)) == ev.total {
				s.counters.NoMethod++
				s.sendResult(h, &ev, statusNoMethod, []byte(ev.method))
			}
			return true
		}
		c = &inboundCall{}
		s.inbound[key] = c
	}
	c.last = now
	// Offset and total are the sender's word; the reassembler bounds them.
	done, err := c.re.AddAt(ev.fragOff, ev.total, ev.data)
	if err != nil {
		delete(s.inbound, key)
		return true
	}
	if !done {
		return true
	}
	delete(s.inbound, key)
	s.counters.CallsServed++
	s.counters.BytesArgs += uint64(len(c.re.Bytes()))
	s.dispatch(h, &ev, c.re.Bytes())
	return true
}

func (s *Server) dispatch(req *wire.Header, ev *envelope, args []byte) {
	if ah, ok := s.async[ev.method]; ok {
		reqCopy := *req
		evCopy := *ev
		ah(args, func(result []byte, err error) {
			if err != nil {
				s.counters.AppErrors++
				s.sendResult(&reqCopy, &evCopy, statusAppError, []byte(err.Error()))
				return
			}
			s.sendResult(&reqCopy, &evCopy, statusOK, result)
		})
		return
	}
	handler, ok := s.handlers[ev.method]
	var status uint8
	var result []byte
	if !ok {
		s.counters.NoMethod++
		status, result = statusNoMethod, []byte(ev.method)
	} else if res, err := handler(args); err != nil {
		s.counters.AppErrors++
		status, result = statusAppError, []byte(err.Error())
	} else {
		status, result = statusOK, res
	}
	s.sendResult(req, ev, status, result)
}

func (s *Server) sendResult(req *wire.Header, ev *envelope, status uint8, result []byte) {
	s.counters.BytesResults += uint64(len(result))

	total := uint64(len(result))
	// Stream all but the final chunk as plain frames; the final chunk
	// rides the matched response.
	off := uint64(0)
	for total-off > chunkData {
		chunk := &envelope{
			kind: kindResponse, status: status, callID: ev.callID,
			fragOff: off, total: total, data: result[off : off+chunkData],
		}
		s.ep.SendReliable(wire.Header{Type: wire.MsgRPC, Dst: req.Src}, chunk.marshal(), nil)
		off += chunkData
	}
	last := &envelope{
		kind: kindResponse, status: status, callID: ev.callID,
		fragOff: off, total: total, data: result[off:],
	}
	s.ep.Respond(req, wire.Header{Type: wire.MsgRPC}, last.marshal())
}

// Client issues calls to explicit endpoints.
type Client struct {
	ep       *transport.Endpoint
	nextCall uint64
	inbound  map[uint64]*clientCall
	tracer   *trace.Recorder
	counters Counters
}

type clientCall struct {
	asm    memproto.Reassembler
	status uint8
	// final indicates the matched response arrived; data chunks may
	// still be outstanding (they arrive before it on a FIFO link, but
	// reordering across retransmits is possible).
	cb func([]byte, error)
}

// NewClient creates a client over an endpoint.
func NewClient(ep *transport.Endpoint) *Client {
	return &Client{ep: ep, inbound: make(map[uint64]*clientCall)}
}

// Counters returns a copy of the client statistics.
func (c *Client) Counters() Counters { return c.counters }

// SetTracer attaches a span recorder: calls become trace roots (or
// children, when the caller supplies a context via CallCtx).
func (c *Client) SetTracer(r *trace.Recorder) { c.tracer = r }

// HandleFrame consumes MsgRPC response chunks that precede the matched
// final response; returns true if consumed.
func (c *Client) HandleFrame(h *wire.Header, payload []byte) bool {
	if h.Type != wire.MsgRPC {
		return false
	}
	var ev envelope
	if err := ev.unmarshal(payload); err != nil {
		return true
	}
	if ev.kind != kindResponse {
		return false
	}
	call, ok := c.inbound[ev.callID]
	if !ok {
		return true // late chunk for a finished call
	}
	c.ingest(call, &ev)
	return true
}

func (c *Client) ingest(call *clientCall, ev *envelope) {
	done, err := call.asm.AddAt(ev.fragOff, ev.total, ev.data)
	if err != nil {
		c.finish(ev.callID, call, nil, err)
		return
	}
	call.status = ev.status
	if done {
		c.finish(ev.callID, call, call.asm.Bytes(), nil)
	}
}

func (c *Client) finish(id uint64, call *clientCall, result []byte, err error) {
	delete(c.inbound, id)
	if err != nil {
		call.cb(nil, err)
		return
	}
	switch call.status {
	case statusOK:
		c.counters.BytesResults += uint64(len(result))
		call.cb(result, nil)
	case statusNoMethod:
		call.cb(nil, fmt.Errorf("%w: %s", ErrNoMethod, result))
	default:
		c.counters.AppErrors++
		call.cb(nil, fmt.Errorf("%w: %s", ErrRemote, result))
	}
}

// Call invokes method at dst with serialized args; cb receives the
// result or an error. Arguments of any size are chunked.
func (c *Client) Call(dst wire.StationID, method string, args []byte, cb func([]byte, error)) {
	c.CallCtx(dst, method, args, 0, trace.Ctx{}, cb)
}

// CallCtx is Call with an explicit response deadline (0 scales the
// default with argument size) and trace context: when tc carries a
// sampled trace the call's span parents under it (so e.g. an Invoke's
// RPC leg nests inside the invoke root); a zero tc makes the call its
// own sampled root.
func (c *Client) CallCtx(dst wire.StationID, method string, args []byte,
	timeout backend.Duration, tc trace.Ctx, cb func([]byte, error)) {

	var sp *trace.Span
	if tc.Traced() {
		sp = c.tracer.StartSpan(tc, trace.KindRPC, "rpc:"+method)
	} else {
		sp = c.tracer.StartRoot("rpc:" + method)
	}
	if sp != nil {
		inner := cb
		cb = func(result []byte, err error) {
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
			inner(result, err)
		}
	}
	ctx := sp.Ctx()
	c.nextCall++
	id := c.nextCall
	c.counters.CallsSent++
	c.counters.BytesArgs += uint64(len(args))

	total := uint64(len(args))
	off := uint64(0)
	for total-off > chunkData {
		chunk := &envelope{
			kind: kindRequest, callID: id, method: method,
			fragOff: off, total: total, data: args[off : off+chunkData],
		}
		ch := wire.Header{Type: wire.MsgRPC, Dst: dst}
		ctx.Inject(&ch)
		c.ep.SendReliable(ch, chunk.marshal(), nil)
		off += chunkData
	}
	last := &envelope{
		kind: kindRequest, callID: id, method: method,
		fragOff: off, total: total, data: args[off:],
	}
	if timeout == 0 {
		timeout = requestTimeoutFor(len(args))
	}
	call := &clientCall{cb: cb}
	c.inbound[id] = call
	lh := wire.Header{Type: wire.MsgRPC, Dst: dst}
	ctx.Inject(&lh)
	c.ep.Request(lh, last.marshal(),
		timeout,
		func(resp *wire.Header, payload []byte, err error) {
			if err != nil {
				if _, live := c.inbound[id]; live {
					// Both %w: callers match ErrTransport for the layer and
					// the wrapped transport error for its gasperr class.
					c.finish(id, call, nil, fmt.Errorf("%w: %w", ErrTransport, err))
				}
				return
			}
			var ev envelope
			if uerr := ev.unmarshal(payload); uerr != nil {
				c.finish(id, call, nil, uerr)
				return
			}
			if _, live := c.inbound[id]; live {
				c.ingest(call, &ev)
			}
		})
}

// requestTimeoutFor scales the request deadline with transfer size so
// chunked megabyte calls do not spuriously time out.
func requestTimeoutFor(n int) backend.Duration {
	base := 20 * backend.Millisecond
	per := backend.Duration(n/chunkData) * 5 * backend.Millisecond
	return base + per
}
