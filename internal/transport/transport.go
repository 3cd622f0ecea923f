// Package transport implements the "new, light-weight form of reliable
// transmission" argued for in §3.2: per-frame acknowledgment and
// retransmission with none of TCP's connection setup, stream ordering,
// or congestion control (no slow start), layered directly over GASP
// frames.
//
// Two facilities are provided:
//
//   - frame-level reliability: frames sent with reliability enabled are
//     retransmitted on a timer until acknowledged or retried out;
//   - request/response matching: a request's sequence number routes the
//     response back to a callback, with an overall timeout.
//
// The transport sends only frames that carry information. The
// retransmit timer is measured, not guessed: every cleanly acknowledged
// frame is a round-trip sample for its destination (RFC 6298:
// RTO = SRTT + 4·RTTVAR, Karn's rule for retransmitted frames), so a
// timer does not fire while the frame or its ack still sits in a link
// queue. And a response is its request's acknowledgment: a receiver
// holds the ack of a fresh reliable request until the handler returns
// and drops it if the handler answered, so a request/response exchange
// is three frames (request, response, ack of the response), not four.
//
// Everything runs on the backend seam's clock — virtual under the
// simulator, wall time under realnet — with no direct dependency on
// either implementation.
package transport

import (
	"fmt"
	"slices"

	"repro/internal/backend"
	"repro/internal/dataplane"
	"repro/internal/gasperr"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Errors surfaced to callers. Both wrap the gasperr taxonomy so
// callers can classify with errors.Is(err, gasperr.ErrTimeout) /
// gasperr.ErrUnreachable without importing this package.
var (
	ErrTimeout    = fmt.Errorf("transport: timed out: %w", gasperr.ErrTimeout)
	ErrRetriesOut = fmt.Errorf("transport: retransmission budget exhausted: %w", gasperr.ErrUnreachable)
)

// Config tunes an endpoint.
type Config struct {
	// RetransmitTimeout is the floor of a destination's retransmit
	// timeout, and its value until the first round trip to that
	// destination has been measured (default 200µs, a handful of fabric
	// RTTs). It is not "the" interval: once acks arrive the timeout is
	// SRTT + 4·RTTVAR of the measured path, never below this floor.
	// Before the first sample the only path-dependent part of a
	// deadline is the perByteTimeout allowance for the frame and the
	// unacked bytes queued ahead of it, which every deadline keeps.
	RetransmitTimeout backend.Duration
	// MaxRetransmitTimeout caps the timeout, measured or backed off, so
	// neither a long outage nor one slow sample pushes probes
	// arbitrarily far apart (default 16× the floor).
	MaxRetransmitTimeout backend.Duration
	// RetryBudget bounds the total time a reliable frame may spend
	// unacknowledged, replacing the old fixed retry count. Once the
	// budget elapses the frame fails with ErrRetriesOut (default 5ms,
	// which fits five attempts of the default backoff schedule).
	RetryBudget backend.Duration
	// RequestTimeout is the default request/response deadline
	// (default 5ms).
	RequestTimeout backend.Duration
}

const (
	// perByteTimeout scales the ack deadline with frame size so jumbo
	// frames are not retransmitted while still serializing (10ns/byte ≈
	// a conservative 0.8 Gb/s path).
	perByteTimeout = 10 * backend.Nanosecond
	// backoff multiplies the retransmit interval after every
	// unacknowledged attempt.
	backoff = 2
)

func (c *Config) fill() {
	if c.RetransmitTimeout == 0 {
		c.RetransmitTimeout = 200 * backend.Microsecond
	}
	if c.MaxRetransmitTimeout == 0 {
		c.MaxRetransmitTimeout = 16 * c.RetransmitTimeout
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 5 * backend.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * backend.Millisecond
	}
}

// Counters aggregates endpoint statistics.
type Counters struct {
	FramesSent   uint64
	Broadcasts   uint64
	Retransmits  uint64
	AcksSent     uint64
	AcksReceived uint64
	// AcksImplicitTotal counts reliable frames this endpoint sent that
	// were completed by their response instead of a MsgAck.
	AcksImplicitTotal uint64
	Delivered         uint64
	Duplicates        uint64
	BelowWindow       uint64 // too old for the source's duplicate window: dropped unacked
	SendFailures      uint64
	RequestsSent      uint64
	ResponsesSent     uint64
	RequestTimeout    uint64
	// ParseDrops counts received frames that failed header validation
	// (truncated, bad magic/version/checksum) — malformed traffic is
	// accounted, never dispatched.
	ParseDrops uint64
}

// Handler receives application frames (anything that is not a pure ack
// or a matched response).
type Handler func(h *wire.Header, payload []byte)

// pending is the state of one outstanding sequence number: a reliable
// frame awaiting its ack, a request awaiting its response, or both, as
// a reliable request is. Each half ends as it would alone — the frame
// when acked or retried out, the request when answered or past its
// deadline — and the record leaves Endpoint.pending once neither is
// open. Records are pooled per endpoint: the struct, its pre-bound
// callbacks and both timers survive from one sequence number to the
// next, so the steady-state reliable path allocates nothing here.
type pending struct {
	e   *Endpoint
	seq uint64

	// The reliable frame, open while buf is set.
	frame    backend.Frame
	buf      *dataplane.Buf // reference held until acked or retried out
	peer     *rttEstimator  // the destination's timer state
	retries  int
	interval backend.Duration // current backed-off retransmit interval
	sent     backend.Time     // first transmission: RTT sample base, RetryBudget origin
	timer    backend.Timer
	fireFn   func() // pre-bound retransmit callback (== p.fire)
	done     func(error)
	span     *trace.Span // send span, open until acked or retried out

	// The request, open while cb is set.
	cb       func(*wire.Header, []byte, error)
	deadline backend.Timer
	expireFn func() // pre-bound timeout callback (== p.expire)
}

// frameID names one frame of one source.
type frameID struct {
	src wire.StationID
	seq uint64
}

// dedupWindow is how far behind the highest sequence number accepted
// from a source a frame may arrive and still be told from a duplicate.
const dedupWindow = 8192

// replayWindow is the duplicate-suppression state for one source: the
// highest sequence number accepted from it and one bit for each of the
// dedupWindow numbers ending there, at position seq mod dedupWindow
// (the anti-replay window of RFC 4303 §3.4.3). A source numbers all its
// frames, to every destination, from one counter, so what one receiver
// hears has gaps; gaps and reordering inside the window cost nothing.
type replayWindow struct {
	top  uint64
	bits [dedupWindow / 64]uint64
}

// admit records seq unless it was seen before (dup) or is older than
// the window remembers (below), where seen and unseen look the same.
func (w *replayWindow) admit(seq uint64) (dup, below bool) {
	word, bit := &w.bits[seq%dedupWindow/64], uint64(1)<<(seq%64)
	switch {
	case seq > w.top:
		// The window slides up to seq: the numbers it newly covers (all
		// of it, after a jump of a window or more) are unseen, whatever
		// their positions last recorded.
		for s := max(w.top, seq-min(seq, dedupWindow)) + 1; s <= seq; s++ {
			w.bits[s%dedupWindow/64] &^= 1 << (s % 64)
		}
		w.top = seq
	case w.top-seq >= dedupWindow:
		return false, true
	case *word&bit != 0:
		return true, false
	}
	*word |= bit
	return false, false
}

// implicitAckMaxFrame is the longest response that replaces its
// request's ack: a standard Ethernet frame. The requester armed its
// timer knowing only the size of its own frame, and a jumbo reply (a
// 64 KiB grant fragment takes 232 µs across four 10 Gb/s hops) would
// outlast it and be taken for a lost request.
const implicitAckMaxFrame = 1500

// rttEstimator is one destination's retransmit-timer state (RFC 6298),
// allocated on the first reliable send to it and never per frame.
type rttEstimator struct {
	srtt, rttvar backend.Duration // zero until the first clean sample
	// rto is what the next frame to this destination arms with: the
	// floor until a sample arrives, then SRTT + 4·RTTVAR clamped to
	// [RetransmitTimeout, MaxRetransmitTimeout], raised to the
	// backed-off interval of any frame that timed out since (Karn).
	rto backend.Duration
}

// Endpoint is a station's transport instance bound to a backend link.
type Endpoint struct {
	clock   backend.Clock
	link    backend.Link
	station wire.StationID
	cfg     Config

	nextSeq uint64
	mux     *dataplane.Mux
	pending map[uint64]*pending
	free    []*pending // recycled records, timers and callbacks kept
	// inflightBytes tracks unacked reliable bytes so retransmit
	// deadlines account for self-induced queueing behind large frames.
	inflightBytes int
	// peers holds one estimator per destination as addressed: a
	// SchemeSharded request goes to StationAny and is timed as such,
	// whichever home the fabric picks.
	peers map[wire.StationID]*rttEstimator

	// owedAck is the fresh reliable request now being dispatched whose
	// ack is held back (ackOwed) in case the handler's response makes
	// it redundant; flushAck sends it.
	owedAck frameID
	ackOwed bool

	// heard[i] is the duplicate window of station sources[i]: one per
	// station ever heard from, so bounded by membership as peers is. A
	// scan of the few IDs costs less than hashing one.
	sources []wire.StationID
	heard   []*replayWindow

	// rxHdr is the receive path's scratch header: one decode target
	// for every arriving frame, so parsing never heap-allocates.
	// Handlers borrow it for the duration of the dispatch.
	rxHdr wire.Header

	tracer   *trace.Recorder
	counters Counters
}

// NewEndpoint binds a transport endpoint to a backend link, claiming
// its receive upcall.
func NewEndpoint(link backend.Link, station wire.StationID, cfg Config) *Endpoint {
	cfg.fill()
	e := &Endpoint{
		clock:   link.Clock(),
		link:    link,
		station: station,
		cfg:     cfg,
		mux:     dataplane.NewMux(),
		pending: make(map[uint64]*pending),
		peers:   make(map[wire.StationID]*rttEstimator),
	}
	link.SetOnFrame(e.onFrame)
	return e
}

// track returns seq's record, drawing a pooled one (fresh on first use)
// when seq has none.
func (e *Endpoint) track(seq uint64) *pending {
	if p := e.pending[seq]; p != nil {
		return p
	}
	var p *pending
	if k := len(e.free); k > 0 {
		p, e.free = e.free[k-1], e.free[:k-1]
	} else {
		p = &pending{e: e}
		p.fireFn, p.expireFn = p.fire, p.expire
	}
	p.seq = seq
	e.pending[seq] = p
	return p
}

// endFrame closes p's reliable-frame half: its bytes leave the in-flight
// count and its buffer reference is dropped.
func (e *Endpoint) endFrame(p *pending) {
	e.inflightBytes -= len(p.frame)
	p.buf.Release()
	p.frame, p.buf, p.peer, p.done, p.span = nil, nil, nil, nil, nil
	e.settle(p)
}

// endRequest closes p's request half and returns its callback.
func (e *Endpoint) endRequest(p *pending) func(*wire.Header, []byte, error) {
	cb := p.cb
	p.cb = nil
	e.settle(p)
	return cb
}

// settle recycles p once neither half is open. The timers stay with p:
// a later reuse re-arms them in place.
func (e *Endpoint) settle(p *pending) {
	if p.buf != nil || p.cb != nil {
		return
	}
	delete(e.pending, p.seq)
	*p = pending{e: e, timer: p.timer, fireFn: p.fireFn, deadline: p.deadline, expireFn: p.expireFn}
	e.free = append(e.free, p)
}

// Station returns the endpoint's station ID.
func (e *Endpoint) Station() wire.StationID { return e.station }

// Clock returns the clock the endpoint runs on.
func (e *Endpoint) Clock() backend.Clock { return e.clock }

// MTU returns the largest frame the endpoint's link carries in one
// piece (0 = no limit). Layers that fragment large transfers size
// their fragments to it.
func (e *Endpoint) MTU() int { return e.link.MTU() }

// Counters returns a copy of the endpoint statistics.
func (e *Endpoint) Counters() Counters { return e.counters }

// Mux returns the endpoint's frame mux. Application frames (anything
// that is not a pure ack or a matched response) are dispatched through
// it; register per-type handlers here.
func (e *Endpoint) Mux() *dataplane.Mux { return e.mux }

// SetHandler installs a catch-all application upcall: a compatibility
// wrapper over Mux().SetDefault that consumes every frame no typed
// handler claimed. Pass nil to remove it.
func (e *Endpoint) SetHandler(fn Handler) {
	if fn == nil {
		e.mux.SetDefault(nil)
		return
	}
	e.mux.SetDefault(func(h *wire.Header, payload []byte) bool {
		fn(h, payload)
		return true
	})
}

// SetTracer attaches a span recorder: traced frames (headers stamped
// via trace.Ctx.Inject) get a send span per transmission attempt
// lineage, retransmit markers, and a receiver-side dispatch span from
// the mux. A nil recorder leaves the endpoint untraced.
func (e *Endpoint) SetTracer(r *trace.Recorder) {
	e.tracer = r
	e.mux.SetTracer(r)
}

// traceSend opens a send span for a traced header and re-stamps the
// header so downstream hops (switches, links, the receiver) parent to
// this span: the frame carries span lineage hop by hop.
func (e *Endpoint) traceSend(h *wire.Header) *trace.Span {
	if e.tracer == nil || h.Flags&wire.FlagTraced == 0 {
		return nil
	}
	sp := e.tracer.StartSpan(trace.Ctx{Trace: h.TraceID, Span: h.SpanID},
		trace.KindSend, sendName(h.Type))
	if sp != nil {
		h.ParentID = h.SpanID
		h.SpanID = sp.ID
	}
	return sp
}

// sendNames pre-concatenates per-type send-span names so traced sends
// do not build a string per frame.
var sendNames = func() [wire.NumMsgTypes]string {
	var names [wire.NumMsgTypes]string
	for t := range names {
		names[t] = "send:" + wire.MsgType(t).String()
	}
	return names
}()

func sendName(t wire.MsgType) string {
	if int(t) < len(sendNames) {
		return sendNames[t]
	}
	return "send:?"
}

// allocSeq returns a fresh sequence number.
func (e *Endpoint) allocSeq() uint64 {
	e.nextSeq++
	return e.nextSeq
}

// Send transmits a frame unreliably (fire and forget). The header's
// Src and Seq are filled in; h.Dst, h.Type, h.Object, h.Flags are the
// caller's. It returns the assigned sequence number.
func (e *Endpoint) Send(h wire.Header, payload []byte) (uint64, error) {
	return e.SendV(h, payload, nil)
}

// SendV is Send for a payload in two pieces, prefix then body, as
// SendReliableV, RequestV and RespondV are for their namesakes. Both
// are copied into the frame (dataplane.EncodeFrameV) before the call
// returns, and a retransmission resends that frame.
func (e *Endpoint) SendV(h wire.Header, prefix, body []byte) (uint64, error) {
	e.flushAck()
	h.Src = e.station
	h.Seq = e.allocSeq()
	sp := e.traceSend(&h)
	buf, err := dataplane.EncodeFrameV(&h, prefix, body)
	if err != nil {
		e.counters.SendFailures++
		sp.End()
		return 0, err
	}
	if h.Dst == wire.StationBroadcast {
		e.counters.Broadcasts++
	}
	e.counters.FramesSent++
	e.link.SendBuf(buf.Bytes(), buf)
	// Fire and forget: the send span marks the handoff instant.
	sp.End()
	return h.Seq, nil
}

// SendReliable transmits with acknowledgment and retransmission. done
// (may be nil) is called with nil once acked, or ErrRetriesOut.
func (e *Endpoint) SendReliable(h wire.Header, payload []byte, done func(error)) (uint64, error) {
	return e.SendReliableV(h, payload, nil, done)
}

func (e *Endpoint) SendReliableV(h wire.Header, prefix, body []byte, done func(error)) (uint64, error) {
	if h.Dst == wire.StationBroadcast {
		return 0, fmt.Errorf("transport: reliable broadcast unsupported")
	}
	e.flushAck()
	h.Src = e.station
	h.Seq = e.allocSeq()
	h.Flags |= wire.FlagReliable
	sp := e.traceSend(&h)
	buf, err := dataplane.EncodeFrameV(&h, prefix, body)
	if err != nil {
		e.counters.SendFailures++
		sp.End()
		return 0, err
	}
	p := e.track(h.Seq)
	p.frame = buf.Bytes()
	p.buf = buf
	p.peer = e.peer(h.Dst)
	p.interval = p.peer.rto
	p.sent = e.clock.Now()
	p.done = done
	p.span = sp
	e.inflightBytes += len(p.frame)
	e.counters.FramesSent++
	// The pending record keeps the caller's reference for retransmission;
	// each SendBuf consumes one of its own.
	buf.Retain()
	e.link.SendBuf(p.frame, buf)
	e.armRetransmit(p)
	return h.Seq, nil
}

// peer returns dst's estimator, created at the floor on first use.
func (e *Endpoint) peer(dst wire.StationID) *rttEstimator {
	est := e.peers[dst]
	if est == nil {
		est = &rttEstimator{rto: e.cfg.RetransmitTimeout}
		e.peers[dst] = est
	}
	return est
}

// sampleRTT folds one clean round trip into est and sets its timeout
// from the result, which also ends any backoff a timed-out frame left
// there.
func (e *Endpoint) sampleRTT(est *rttEstimator, rtt backend.Duration) {
	if est.srtt == 0 {
		est.srtt, est.rttvar = rtt, rtt/2
	} else {
		dev := est.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		est.rttvar += (dev - est.rttvar) / 4
		est.srtt += (rtt - est.srtt) / 8
	}
	est.rto = max(e.cfg.RetransmitTimeout, min(e.cfg.MaxRetransmitTimeout, est.srtt+4*est.rttvar))
}

// RTT reports the largest smoothed round trip and the largest current
// retransmit timeout over the destinations this endpoint has sent
// reliable frames to (zero before the first).
func (e *Endpoint) RTT() (srtt, rto backend.Duration) {
	for _, est := range e.peers {
		srtt, rto = max(srtt, est.srtt), max(rto, est.rto)
	}
	return srtt, rto
}

func (e *Endpoint) armRetransmit(p *pending) {
	// The measured timeout, plus an allowance for this frame's own
	// serialization and the unacked bytes already queued ahead of it,
	// which samples taken on smaller frames do not predict.
	wait := p.interval +
		backend.Duration(len(p.frame)+e.inflightBytes)*perByteTimeout
	p.timer = backend.ResetTimer(e.clock, p.timer, wait, p.fireFn)
}

// fire is the pooled retransmit callback: retries out, or retransmits
// and re-arms with backoff.
func (p *pending) fire() {
	e := p.e
	if e.pending[p.seq] != p || p.buf == nil {
		return // completed (and possibly reused) since arming
	}
	if e.clock.Now().Sub(p.sent) >= e.cfg.RetryBudget {
		done, retries := p.done, p.retries
		p.span.SetAttr("error", "retries-out")
		p.span.End()
		e.endFrame(p)
		if done != nil {
			done(fmt.Errorf("%w after %d retransmits over %v",
				ErrRetriesOut, retries, e.cfg.RetryBudget))
		}
		return
	}
	p.retries++
	e.counters.Retransmits++
	e.counters.FramesSent++
	if e.tracer != nil && p.span != nil {
		e.tracer.Mark(p.span.Ctx(), trace.KindRetrans,
			fmt.Sprintf("rtx#%d rto=%dus", p.retries, p.interval/backend.Microsecond))
	}
	p.buf.Retain()
	e.link.SendBuf(p.frame, p.buf)
	// Exponential backoff: widen the probe interval up to the cap.
	p.interval *= backoff
	if p.interval > e.cfg.MaxRetransmitTimeout {
		p.interval = e.cfg.MaxRetransmitTimeout
	}
	// Karn's rule: this frame's ack will be ambiguous and yield no
	// sample, so the backed-off value stays with the destination for
	// its next frames until one of them is acked cleanly. A path whose
	// every frame times out at the current estimate still converges.
	p.peer.rto = max(p.peer.rto, p.interval)
	e.armRetransmit(p)
}

// Request sends a (reliable) request and routes the matching response
// (FlagResponse with Ack == request seq) to cb. timeout 0 selects the
// configured default. cb receives ErrTimeout if no response arrives.
func (e *Endpoint) Request(h wire.Header, payload []byte, timeout backend.Duration,
	cb func(resp *wire.Header, payload []byte, err error)) (uint64, error) {
	return e.RequestV(h, payload, nil, timeout, cb)
}

func (e *Endpoint) RequestV(h wire.Header, prefix, body []byte, timeout backend.Duration,
	cb func(resp *wire.Header, payload []byte, err error)) (uint64, error) {

	if timeout == 0 {
		timeout = e.cfg.RequestTimeout
	}
	var seq uint64
	var err error
	if h.Dst == wire.StationBroadcast {
		seq, err = e.SendV(h, prefix, body)
	} else {
		seq, err = e.SendReliableV(h, prefix, body, nil)
	}
	if err != nil {
		return 0, err
	}
	e.counters.RequestsSent++
	p := e.track(seq)
	p.cb = cb
	p.deadline = backend.ResetTimer(e.clock, p.deadline, timeout, p.expireFn)
	return seq, nil
}

// expire is the pooled request-timeout callback.
func (p *pending) expire() {
	e := p.e
	if e.pending[p.seq] != p || p.cb == nil {
		return // answered (and possibly reused) since arming
	}
	e.counters.RequestTimeout++
	seq := p.seq
	e.endRequest(p)(nil, nil, fmt.Errorf("%w: request seq %d", ErrTimeout, seq))
}

// Respond answers a request: Dst is the requester, Ack echoes the
// request's sequence number, FlagResponse is set.
func (e *Endpoint) Respond(req *wire.Header, h wire.Header, payload []byte) error {
	return e.RespondV(req, h, payload, nil)
}

func (e *Endpoint) RespondV(req *wire.Header, h wire.Header, prefix, body []byte) error {
	h.Dst = req.Src
	h.Ack = req.Seq
	h.Flags |= wire.FlagResponse
	// Replies inherit the request's trace context so the response leg
	// chains causally under the request's send span.
	if req.Flags&wire.FlagTraced != 0 {
		trace.Ctx{Trace: req.TraceID, Span: req.SpanID}.Inject(&h)
	}
	e.counters.ResponsesSent++
	if req.Flags&wire.FlagReliable != 0 {
		// The response completes the request at its sender, so the ack
		// held for it is redundant — unless it already went out ahead
		// of some other frame the handler sent first, or the response
		// is too long to stand in for it.
		implied := e.ackOwed && e.owedAck == frameID{src: req.Src, seq: req.Seq} &&
			wire.HeaderSize+len(prefix)+len(body) <= implicitAckMaxFrame
		if implied {
			e.ackOwed = false
		}
		_, err := e.SendReliableV(h, prefix, body, nil)
		if err != nil && implied {
			e.sendAck(req.Src, req.Seq)
		}
		return err
	}
	_, err := e.SendV(h, prefix, body)
	return err
}

// onFrame is the link's receive upcall: every arriving frame, one call.
func (e *Endpoint) onFrame(fr backend.Frame) {
	if payload, ok := e.recvFiltered(fr); ok {
		e.counters.Delivered++
		e.mux.Dispatch(&e.rxHdr, payload)
		e.flushAck() // the handler did not respond
	}
}

// sendAck acknowledges the reliable frame (src, seq) with a pure MsgAck.
func (e *Endpoint) sendAck(src wire.StationID, seq uint64) {
	ack := wire.Header{Type: wire.MsgAck, Src: e.station, Dst: src, Ack: seq}
	if buf, err := dataplane.EncodeFrame(&ack, nil); err == nil {
		e.counters.AcksSent++
		e.link.SendBuf(buf.Bytes(), buf)
	}
}

// flushAck sends the ack held back for the request being dispatched, if
// there is one. Every transmission starts with it, so the ack never
// queues behind frames the handler sends before (or instead of) a
// response.
func (e *Endpoint) flushAck() {
	if e.ackOwed {
		e.ackOwed = false
		e.sendAck(e.owedAck.src, e.owedAck.seq)
	}
}

// acked completes the pending reliable frame seq, if it still is one.
// An unretransmitted frame's completion is a round-trip sample.
func (e *Endpoint) acked(seq uint64) bool {
	p := e.pending[seq]
	if p == nil || p.buf == nil {
		return false
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	if p.retries == 0 {
		e.sampleRTT(p.peer, e.clock.Now().Sub(p.sent))
	} else if p.span != nil {
		p.span.SetAttr("retries", fmt.Sprintf("%d", p.retries))
	}
	// A reliable send span spans first transmission to ack.
	p.span.End()
	done := p.done
	e.endFrame(p)
	if done != nil {
		done(nil)
	}
	return true
}

// recvFiltered parses fr into the endpoint's scratch header (e.rxHdr)
// and runs the transport-level receive machinery: address filtering,
// ack completion, ack generation, duplicate suppression, and
// request/response matching. It reports whether the frame remains to
// be dispatched to the application mux; when true, the decoded header
// is in e.rxHdr (borrowed until the next frame is processed). The ack
// of a fresh reliable request is left owed for the caller to flush once
// the handler has had its chance to respond; everything else is acked
// here.
func (e *Endpoint) recvFiltered(fr backend.Frame) ([]byte, bool) {
	h := &e.rxHdr
	if err := h.DecodeFrom(fr); err != nil {
		e.counters.ParseDrops++
		return nil, false
	}
	// Frames flooded through the fabric may reach stations they are
	// not addressed to. Frames addressed to StationAny were routed on
	// their object ID — the fabric chose us, so accept.
	if h.Dst != e.station && h.Dst != wire.StationBroadcast && h.Dst != wire.StationAny {
		return nil, false
	}

	if h.Type == wire.MsgAck {
		e.counters.AcksReceived++
		e.acked(h.Ack)
		return nil, false
	}
	response := h.Flags&wire.FlagResponse != 0

	// Duplicate suppression, by the source's window. A frame below it
	// may be new or not: an ack could claim a delivery that never was, a
	// dispatch could deliver twice, so it gets neither and the sender's
	// retry budget decides.
	i := slices.Index(e.sources, h.Src)
	if i < 0 {
		i = len(e.sources)
		e.sources, e.heard = append(e.sources, h.Src), append(e.heard, new(replayWindow))
	}
	dup, below := e.heard[i].admit(h.Seq)
	if below {
		e.counters.BelowWindow++
		return nil, false
	}

	// Ack reliable frames (even duplicates — the ack may have been
	// lost), except that a fresh request's ack waits for its dispatch:
	// the handler's response may carry it.
	if h.Flags&wire.FlagReliable != 0 {
		if !dup && !response {
			e.owedAck, e.ackOwed = frameID{src: h.Src, seq: h.Seq}, true
		} else {
			e.sendAck(h.Src, h.Seq)
		}
	}

	// A response acknowledges the frame it answers exactly as a MsgAck
	// does, from whichever station the fabric chose to answer.
	if response && e.acked(h.Ack) {
		e.counters.AcksImplicitTotal++
	}

	if dup {
		e.counters.Duplicates++
		return nil, false
	}

	payload := wire.Payload(fr)

	// Response matching.
	if response {
		if p := e.pending[h.Ack]; p != nil && p.cb != nil {
			p.deadline.Stop()
			e.counters.Delivered++
			e.endRequest(p)(h, payload, nil)
		}
		return nil, false // a late or duplicate response is dropped
	}

	return payload, true
}

// Reset abandons all in-flight transport state, modeling a process
// crash: pending reliable frames and outstanding requests are dropped
// without invoking their callbacks (the process that registered them
// is gone), timers are stopped, and the duplicate windows are cleared. The
// sequence counter is preserved so a restarted endpoint does not reuse
// sequence numbers its peers may still remember.
func (e *Endpoint) Reset() {
	for _, p := range e.pending {
		if p.buf != nil {
			p.timer.Stop()
			p.span.SetAttr("error", "reset")
			p.span.End()
			e.endFrame(p)
		}
		if p.cb != nil {
			p.deadline.Stop()
			e.endRequest(p)
		}
	}
	e.inflightBytes = 0
	clear(e.peers)
	e.ackOwed = false
	e.sources, e.heard = nil, nil
}

// PendingFrames reports in-flight reliable frames (for tests).
func (e *Endpoint) PendingFrames() int { frames, _ := e.open(); return frames }

// PendingRequests reports outstanding requests (for tests).
func (e *Endpoint) PendingRequests() int { _, requests := e.open(); return requests }

// open counts the pending records whose frame and request halves are
// open.
func (e *Endpoint) open() (frames, requests int) {
	for _, p := range e.pending {
		if p.buf != nil {
			frames++
		}
		if p.cb != nil {
			requests++
		}
	}
	return frames, requests
}
