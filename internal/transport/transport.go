// Package transport implements the "new, light-weight form of reliable
// transmission" argued for in §3.2: per-frame acknowledgment and
// retransmission with none of TCP's connection setup, stream ordering,
// or congestion control (no slow start), layered directly over GASP
// frames. A request's sequence number also routes its response back to
// a callback, with an overall timeout.
//
// The transport sends only frames that carry information. Each
// destination has one send state: its unacknowledged frames in sequence
// order and one retransmit timer, run as RFC 6298 §5 runs TCP's. The
// timeout is measured: every cleanly acknowledged frame is a round-trip
// sample (RTO = SRTT + max(floor, 4·RTTVAR), Karn's rule for
// retransmitted frames). The timer restarts only when the oldest frame
// is acknowledged, so acks of later frames neither starve a lost one
// nor keep re-arming it, and when it fires every frame unacked for a
// full timeout goes again, oldest first. A response is its request's
// ack and gets none (Birrell and Nelson: the next call acknowledges the
// previous result). Sent while the request's ack is still held back, it
// goes unreliably and is kept to answer a duplicate of the request,
// whose retransmissions, for a retry budget per leg, recover either
// loss. Every other frame carries the sender's low-water mark, which
// releases the replies kept for it; a requester gone quiet tells its
// mark, and a reply outliving two budgets is dropped. So a
// request/response exchange is two frames, not four.
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
	// RetransmitTimeout is a destination's retransmit timeout until its
	// first round trip is measured, then the floor of the variance term:
	// SRTT + max(this, 4·RTTVAR), RFC 6298's max(G, K·RTTVAR) (default
	// 200µs, a handful of fabric RTTs).
	RetransmitTimeout backend.Duration
	// MaxRetransmitTimeout caps the timeout, measured or backed off, so
	// neither a long outage nor one slow sample pushes probes
	// arbitrarily far apart (default 16× the floor).
	MaxRetransmitTimeout backend.Duration
	// RetryBudget bounds the total time a reliable frame may spend
	// unacknowledged; then it fails with ErrRetriesOut (default 5ms,
	// which fits five attempts of the default backoff schedule). A
	// request waiting for its response gets two.
	RetryBudget backend.Duration
	// RequestTimeout is the default request/response deadline
	// (default 5ms).
	RequestTimeout backend.Duration
}

const (
	// perByteTimeout stretches a timer by the station's unacked bytes so
	// a burst of jumbo frames is not retransmitted while serializing:
	// 10 ns/byte, a 0.8 Gb/s path, sized for the 10 Gb/s fabric. On
	// slower links (E9's 100 Mb/s) the queueing is in the SRTT instead.
	perByteTimeout = 10 * backend.Nanosecond
	// backoff multiplies a destination's timeout each time it fires.
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
	// RepliesKept is a gauge: responses held for a duplicate of their
	// request. RepliesResent counts those sent again.
	RepliesKept   uint64
	RepliesResent uint64
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
	// (truncated, bad magic/version/checksum): accounted, not dispatched.
	ParseDrops uint64
}

// Handler receives application frames (anything that is not a pure ack
// or a matched response).
type Handler func(h *wire.Header, payload []byte)

// pending is the state of one outstanding sequence number: a reliable
// frame awaiting its ack, a request awaiting its response, or both, as
// a reliable request is. Each half ends as it would alone; the record
// leaves its destination's ring once neither is open, and is pooled
// with its deadline timer, so the steady state allocates nothing here.
type pending struct {
	seq  uint64
	peer *peer // the destination whose ring holds the record

	// The reliable frame, open while buf is set.
	frame   backend.Frame
	buf     *dataplane.Buf // reference held until acked or retried out
	retries int
	sent    backend.Time // first transmission: RTT sample base, RetryBudget origin
	last    backend.Time // latest transmission: due again a full RTO after it
	done    func(error)
	span    *trace.Span // send span, open until acked or retried out

	// The request, open while cb is set.
	cb       func(*wire.Header, []byte, error)
	deadline backend.Timer
	expireFn func() // pre-bound timeout callback (== p.expire)
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
	// replies are the responses kept for the source's requests, in the
	// order they were sent.
	replies []reply
}

// reply is a kept response: the frame answering request seq, sent at.
type reply struct {
	seq uint64
	buf *dataplane.Buf
	at  backend.Time
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
// request's ack and is kept: a standard Ethernet frame. A jumbo reply
// (a 32 KiB grant fragment takes 128 µs across four 10 Gb/s hops)
// could outlast the requester's timer and be taken for a lost request.
const implicitAckMaxFrame = 1500

// delivery is how send treats a frame.
type delivery uint8

const (
	unreliable delivery = iota
	reliable
	kept // unreliable, and kept as the reply to request (h.Dst, h.Ack)
)

// peer is one destination's send state, as addressed (a StationAny
// request is held as such, whichever home answers), never per frame.
type peer struct {
	e            *Endpoint
	dst          wire.StationID
	srtt, rttvar backend.Duration // zero until the first clean sample
	// rto is RetransmitTimeout until a sample arrives, then SRTT +
	// max(RetransmitTimeout, 4·RTTVAR) capped at MaxRetransmitTimeout,
	// doubled each time the timer fires until the next clean sample.
	rto backend.Duration
	// ring holds the records with a half open, in sequence order;
	// frames counts the open frames. The timer runs exactly while
	// frames > 0 (§5.1–5.2), restarting when the oldest is acked (§5.3).
	ring   []*pending
	frames int
	timer  backend.Timer
	fireFn func() // pre-bound retransmit callback (== pr.fire)
}

// search binary-searches the ring for seq: its index, or where it goes.
func (pr *peer) search(seq uint64) (int, bool) {
	lo, hi := 0, len(pr.ring)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); pr.ring[m].seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(pr.ring) && pr.ring[lo].seq == seq
}

// head is the oldest open frame, nil when none is.
func (pr *peer) head() *pending {
	for _, p := range pr.ring {
		if p.buf != nil {
			return p
		}
	}
	return nil
}

// arm (re)starts the retransmit timer to fire one RTO from now, plus
// the perByteTimeout allowance.
func (pr *peer) arm() {
	wait := pr.rto + backend.Duration(pr.e.inflightBytes)*perByteTimeout
	pr.timer = backend.ResetTimer(pr.e.clock, pr.timer, wait, pr.fireFn)
}

// Endpoint is a station's transport instance bound to a backend link.
type Endpoint struct {
	clock   backend.Clock
	link    backend.Link
	station wire.StationID
	cfg     Config

	nextSeq uint64
	mux     *dataplane.Mux
	free    []*pending // recycled records, timers and callbacks kept
	// inflightBytes counts unacked reliable bytes to every destination.
	inflightBytes int
	// peers holds one send state per destination ever sent to: bounded
	// by membership, so a scan of the few IDs costs less than a hash.
	peers []*peer

	// (owedSrc, owedSeq) is the fresh reliable request now being
	// dispatched whose ack is held back (ackOwed) in case the handler's
	// response makes it redundant; flushAck sends it.
	owedSrc wire.StationID
	owedSeq uint64
	ackOwed bool

	// owed lists the stations that kept replies to this endpoint's
	// requests since it last told them its mark, which it does once no
	// frame has been open for a RetransmitTimeout (tellT).
	owed            []wire.StationID
	tellT, sweepT   backend.Timer // sweepT runs while replies are kept
	tellFn, sweepFn func()

	// heard[i] is the duplicate window of station sources[i]: one per
	// station ever heard from, kept the same way as peers.
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
	}
	e.tellFn, e.sweepFn = e.tell, e.sweep
	link.SetOnFrame(e.onFrame)
	return e
}

// track returns the record of seq, the newest number sent to dst,
// appending a pooled one to dst's ring when seq has none.
func (e *Endpoint) track(dst wire.StationID, seq uint64) *pending {
	pr := e.peer(dst)
	if n := len(pr.ring); n > 0 && pr.ring[n-1].seq == seq {
		return pr.ring[n-1]
	}
	var p *pending
	if k := len(e.free); k > 0 {
		p, e.free = e.free[k-1], e.free[:k-1]
	} else {
		p = &pending{}
		p.expireFn = p.expire
	}
	p.seq, p.peer = seq, pr
	pr.ring = append(pr.ring, p)
	return p
}

// find returns the record of seq, which need not be in the ring of the
// station that acked or answered it (a StationAny or broadcast request,
// a forwarded one): sequence numbers are unique across all rings.
func (e *Endpoint) find(seq uint64) *pending {
	for _, pr := range e.peers {
		if i, ok := pr.search(seq); ok {
			return pr.ring[i]
		}
	}
	return nil
}

// endFrame closes p's reliable-frame half, dropping its buffer.
func (e *Endpoint) endFrame(p *pending) {
	p.peer.frames--
	e.inflightBytes -= len(p.frame)
	p.buf.Release()
	p.frame, p.buf, p.done, p.span = nil, nil, nil, nil
	e.settle(p)
	e.quiet()
}

// endRequest closes p's request half and returns its callback.
func (e *Endpoint) endRequest(p *pending) func(*wire.Header, []byte, error) {
	cb := p.cb
	p.cb = nil
	e.settle(p)
	return cb
}

// settle takes p out of its ring and recycles it, deadline timer and
// all, once neither half is open.
func (e *Endpoint) settle(p *pending) {
	if p.buf != nil || p.cb != nil {
		return
	}
	pr := p.peer
	if i, ok := pr.search(p.seq); ok {
		pr.ring = slices.Delete(pr.ring, i, i+1)
	}
	*p = pending{deadline: p.deadline, expireFn: p.expireFn}
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
	return e.send(h, prefix, body, unreliable, nil)
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
	return e.send(h, prefix, body, reliable, done)
}

// send numbers h as the endpoint's next frame and transmits it, after
// the ack owed ahead of every transmission; a reliable frame is held
// in its destination's ring until acked or retried out. A frame that is
// not a response carries the endpoint's low-water mark.
func (e *Endpoint) send(h wire.Header, prefix, body []byte, how delivery, done func(error)) (uint64, error) {
	e.flushAck()
	e.nextSeq++
	seq, ack := e.nextSeq, h.Ack
	if how == reliable {
		h.Flags |= wire.FlagReliable
	}
	if h.Flags&wire.FlagResponse == 0 {
		h.Flags |= wire.FlagLowWater
		ack = e.lowWater()
	}
	h.Src, h.Seq, h.Ack = e.station, uint64(uint32(seq)), uint64(uint32(ack)) // what a frame carries
	sp := e.traceSend(&h)
	buf, err := dataplane.EncodeFrameV(&h, prefix, body)
	if err != nil {
		e.counters.SendFailures++
		sp.End()
		return 0, err
	}
	e.counters.FramesSent++
	if how != reliable {
		if h.Dst == wire.StationBroadcast {
			e.counters.Broadcasts++
		}
		if how == kept {
			e.keep(h.Dst, ack, buf)
		}
		e.link.SendBuf(buf.Bytes(), buf)
		sp.End() // fire and forget: the send span marks the handoff instant
		return seq, nil
	}
	p := e.track(h.Dst, seq)
	p.frame, p.buf, p.done, p.span = buf.Bytes(), buf, done, sp
	p.sent = e.clock.Now()
	p.last = p.sent
	e.inflightBytes += len(p.frame)
	// The pending record keeps the caller's reference for retransmission;
	// each SendBuf consumes one of its own.
	buf.Retain()
	e.link.SendBuf(p.frame, buf)
	if p.peer.frames++; p.peer.frames == 1 {
		p.peer.arm() // §5.1: the timer was not running
	}
	return seq, nil
}

// widen returns the number nearest near, and not below zero, whose low
// 32 bits are low, the ones a frame carried (RFC 9000 §A.3).
func widen(near, low uint64) uint64 {
	d := int64(int32(uint32(low) - uint32(near)))
	if d < 0 && uint64(-d) > near {
		d += 1 << 32
	}
	return near + uint64(d)
}

// lowWater is the endpoint's mark: the oldest frame it may still send
// again, in any destination's ring, or the next number when none is
// open. It is endpoint-wide, as a StationAny request's ring may hold a
// frame that the home's own ring does not.
func (e *Endpoint) lowWater() uint64 {
	mark := e.nextSeq
	for _, pr := range e.peers {
		if pr.frames > 0 {
			mark = min(mark, pr.head().seq)
		}
	}
	return mark
}

// quiet (re)arms the tell when no frame is open and a station is owed.
func (e *Endpoint) quiet() {
	if e.inflightBytes == 0 && len(e.owed) > 0 {
		e.tellT = backend.ResetTimer(e.clock, e.tellT, e.cfg.RetransmitTimeout, e.tellFn)
	}
}

// tell sends each owed station the endpoint's mark in a MsgAck that
// acks nothing, once no frame has been open for a RetransmitTimeout.
func (e *Endpoint) tell() {
	if e.inflightBytes > 0 {
		return // busy again: the next quiet spell arms it again
	}
	for _, dst := range e.owed {
		e.sendAck(dst, e.nextSeq+1, wire.FlagLowWater)
	}
	e.owed = e.owed[:0]
}

// keep holds buf, the response to request (src, seq), in src's replies.
func (e *Endpoint) keep(src wire.StationID, seq uint64, buf *dataplane.Buf) {
	w := e.source(src)
	w.replies = append(w.replies, reply{seq: seq, buf: buf, at: e.clock.Now()})
	buf.Retain()
	if e.counters.RepliesKept++; e.counters.RepliesKept == 1 {
		e.sweepT = backend.ResetTimer(e.clock, e.sweepT, 2*e.cfg.RetryBudget, e.sweepFn)
	}
}

// release drops w's replies to requests below mark or sent at or
// before cut, and stops the sweep once none is kept.
func (e *Endpoint) release(w *replayWindow, mark uint64, cut backend.Time) {
	n := 0
	for _, r := range w.replies {
		if r.seq < mark || r.at <= cut {
			r.buf.Release()
			e.counters.RepliesKept--
		} else {
			w.replies[n] = r
			n++
		}
	}
	if n < len(w.replies) && e.counters.RepliesKept == 0 {
		e.sweepT.Stop()
	}
	clear(w.replies[n:])
	w.replies = w.replies[:n]
}

// sweep drops the replies kept for two retry budgets, past which their
// request is not sent again (pending.budget): its requester is gone.
func (e *Endpoint) sweep() {
	for _, w := range e.heard {
		e.release(w, 0, e.clock.Now().Add(-2*e.cfg.RetryBudget))
	}
	if e.counters.RepliesKept > 0 {
		e.sweepT = backend.ResetTimer(e.clock, e.sweepT, e.cfg.RetryBudget, e.sweepFn)
	}
}

// resend sends the reply kept for request (w's source, seq) again.
func (e *Endpoint) resend(w *replayWindow, seq uint64) bool {
	for _, r := range w.replies {
		if r.seq == seq {
			e.counters.RepliesResent++
			e.counters.FramesSent++
			r.buf.Retain()
			e.link.SendBuf(r.buf.Bytes(), r.buf)
			return true
		}
	}
	return false
}

// peer returns dst's send state, created at the floor on first use.
func (e *Endpoint) peer(dst wire.StationID) *peer {
	for _, pr := range e.peers {
		if pr.dst == dst {
			return pr
		}
	}
	pr := &peer{e: e, dst: dst, rto: e.cfg.RetransmitTimeout}
	pr.fireFn = pr.fire
	e.peers = append(e.peers, pr)
	return pr
}

// sampleRTT folds one clean round trip into pr's estimator and sets its
// timeout from the result, which also ends any backoff left there.
func (e *Endpoint) sampleRTT(pr *peer, rtt backend.Duration) {
	if pr.srtt == 0 {
		pr.srtt, pr.rttvar = rtt, rtt/2
	} else {
		dev := pr.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		pr.rttvar += (dev - pr.rttvar) / 4
		pr.srtt += (rtt - pr.srtt) / 8
	}
	pr.rto = min(e.cfg.MaxRetransmitTimeout, pr.srtt+max(e.cfg.RetransmitTimeout, 4*pr.rttvar))
}

// RTT reports the largest smoothed round trip and current retransmit
// timeout over the destinations sent to (zero before the first).
func (e *Endpoint) RTT() (srtt, rto backend.Duration) {
	for _, pr := range e.peers {
		srtt, rto = max(srtt, pr.srtt), max(rto, pr.rto)
	}
	return srtt, rto
}

// fire is the peer's retransmit timer expiring (RFC 6298 §5.4–5.6):
// every frame unacked for a full RTO goes again, in ring order, or
// fails once past its RetryBudget; then the timeout doubles and the
// timer re-arms with it.
func (pr *peer) fire() {
	e := pr.e
	if pr.frames == 0 {
		return // stopped (or Reset) after this firing was due
	}
	now, rto := e.clock.Now(), pr.rto
	// Each callback may change the ring.
	for {
		i := slices.IndexFunc(pr.ring, func(p *pending) bool { return p.buf != nil && now.Sub(p.sent) >= p.budget() })
		if i < 0 {
			break
		}
		p := pr.ring[i]
		done, retries := p.done, p.retries
		p.span.SetAttr("error", "retries-out")
		p.span.End()
		e.endFrame(p)
		if done != nil {
			done(fmt.Errorf("%w after %d retransmits over %v", ErrRetriesOut, retries, e.cfg.RetryBudget))
		}
	}
	if p := pr.head(); p != nil && now.Sub(p.last) < rto {
		// Samples since arming raised the timeout: wait out the rest.
		pr.timer = backend.ResetTimer(e.clock, pr.timer, rto-now.Sub(p.last), pr.fireFn)
		return
	}
	for _, p := range pr.ring {
		if p.buf == nil || now.Sub(p.last) < rto {
			continue
		}
		p.retries++
		p.last = now
		e.counters.Retransmits++
		e.counters.FramesSent++
		if e.tracer != nil && p.span != nil {
			e.tracer.Mark(p.span.Ctx(), trace.KindRetrans,
				fmt.Sprintf("rtx#%d rto=%dus", p.retries, rto/backend.Microsecond))
		}
		p.buf.Retain()
		e.link.SendBuf(p.frame, p.buf)
	}
	// Karn's rule: the acks of what went again yield no sample, so the
	// backed-off timeout stays until a frame is acked cleanly.
	pr.rto = min(e.cfg.MaxRetransmitTimeout, rto*backoff)
	if pr.frames > 0 {
		pr.arm()
	}
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
	how := reliable
	if h.Dst == wire.StationBroadcast {
		how = unreliable
	}
	seq, err := e.send(h, prefix, body, how, nil)
	if err != nil {
		return 0, err
	}
	e.counters.RequestsSent++
	p := e.track(h.Dst, seq)
	p.cb = cb
	p.deadline = backend.ResetTimer(e.clock, p.deadline, timeout, p.expireFn)
	return seq, nil
}

// budget is how long p's frame may go unacknowledged: a retry budget,
// or one for each leg while it is a request waiting for its response,
// as its retransmissions then recover a lost response too.
func (p *pending) budget() backend.Duration {
	if p.cb != nil {
		return 2 * p.peer.e.cfg.RetryBudget
	}
	return p.peer.e.cfg.RetryBudget
}

// expire is the pooled request-timeout callback.
func (p *pending) expire() {
	if p.cb != nil {
		e, seq := p.peer.e, p.seq
		e.counters.RequestTimeout++
		e.endRequest(p)(nil, nil, fmt.Errorf("%w: request seq %d", ErrTimeout, seq))
	}
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
	how := unreliable
	if req.Flags&wire.FlagReliable != 0 {
		// The response completes the request at its sender, so the ack
		// held for it is redundant, and the kept response is what a
		// duplicate of the request gets — unless the ack already went
		// out ahead of some other frame the handler sent first, or the
		// response is too long to stand in for it: then it is reliable.
		how = reliable
		if e.ackOwed && e.owedSrc == req.Src && e.owedSeq == req.Seq &&
			wire.HeaderSize+len(prefix)+len(body) <= implicitAckMaxFrame {
			e.ackOwed, how = false, kept
		}
	}
	_, err := e.send(h, prefix, body, how, nil)
	if err != nil && how == kept {
		e.sendAck(req.Src, req.Seq, 0)
	}
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

// sendAck acknowledges the reliable frame (src, seq) with a pure
// MsgAck; with FlagLowWater, seq is a mark and the ack acks nothing.
func (e *Endpoint) sendAck(src wire.StationID, seq uint64, flags wire.Flags) {
	ack := wire.Header{Type: wire.MsgAck, Flags: flags, Src: e.station, Dst: src, Ack: uint64(uint32(seq))}
	if buf, err := dataplane.EncodeFrame(&ack, nil); err == nil {
		e.counters.AcksSent++
		e.link.SendBuf(buf.Bytes(), buf)
	}
}

// flushAck sends the ack held back for the request being dispatched, if
// any. Every transmission starts with it, so the ack never queues
// behind frames the handler sends before (or instead of) a response.
func (e *Endpoint) flushAck() {
	if e.ackOwed {
		e.ackOwed = false
		e.sendAck(e.owedSrc, e.owedSeq, 0)
	}
}

// acked completes the pending reliable frame seq, if it still is one.
// An unretransmitted frame's completion is a round-trip sample.
func (e *Endpoint) acked(seq uint64) bool {
	p := e.find(seq)
	if p == nil || p.buf == nil {
		return false
	}
	pr := p.peer
	wasHead := pr.head() == p
	if p.retries == 0 {
		e.sampleRTT(pr, e.clock.Now().Sub(p.sent))
	} else if p.span != nil {
		p.span.SetAttr("retries", fmt.Sprintf("%d", p.retries))
	}
	// A reliable send span spans first transmission to ack.
	p.span.End()
	done := p.done
	e.endFrame(p)
	switch {
	case pr.frames == 0:
		pr.timer.Stop() // §5.2
	case wasHead:
		pr.arm() // §5.3: an ack of a later frame leaves the timer alone
	}
	if done != nil {
		done(nil)
	}
	return true
}

// recvFiltered parses fr into the endpoint's scratch header (e.rxHdr)
// and runs the transport-level receive machinery: address filtering,
// ack completion, ack generation, duplicate suppression, and
// request/response matching. It reports whether the frame remains to
// be dispatched to the application mux, its header in e.rxHdr until the
// next frame. A fresh reliable request's ack is left owed for the
// caller to flush once the handler could respond; all else is acked.
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

	lowWater := h.Flags&wire.FlagLowWater != 0
	if !lowWater { // an ack's or a response's: a number this endpoint sent
		h.Ack = widen(e.nextSeq, h.Ack)
	}
	if h.Type == wire.MsgAck && !lowWater {
		e.counters.AcksReceived++
		e.acked(h.Ack)
		return nil, false
	}
	response := h.Flags&wire.FlagResponse != 0

	// The source's mark releases what was kept for it first, so no
	// reply the source may still ask for again is released.
	w := e.source(h.Src)
	if lowWater { // a mark, widened as the source's numbers are
		h.Ack = widen(w.top, h.Ack)
		e.release(w, h.Ack, -1)
		if h.Type == wire.MsgAck {
			return nil, false // a tell
		}
	}

	// Duplicate suppression, by the source's window. A frame below it
	// may be new or not: an ack could claim a delivery that never was, a
	// dispatch could deliver twice, so it gets neither and the sender's
	// retry budget decides.
	h.Seq = widen(w.top, h.Seq)
	dup, below := w.admit(h.Seq)
	if below {
		e.counters.BelowWindow++
		return nil, false
	}

	// Ack reliable frames (even duplicates — the ack may have been
	// lost), except that a fresh request's ack waits for its dispatch:
	// the handler's response may carry it, and a duplicate's kept
	// response does.
	if h.Flags&wire.FlagReliable != 0 {
		switch {
		case !dup && !response:
			e.owedSrc, e.owedSeq, e.ackOwed = h.Src, h.Seq, true
		case response || !e.resend(w, h.Seq):
			e.sendAck(h.Src, h.Seq, 0)
		}
	}

	// A response acknowledges the frame it answers exactly as a MsgAck
	// does, from whichever station the fabric chose to answer. One that
	// came unreliably was kept: the requester owes that station its mark.
	if response && e.acked(h.Ack) {
		e.counters.AcksImplicitTotal++
		if h.Flags&wire.FlagReliable == 0 && !slices.Contains(e.owed, h.Src) {
			e.owed = append(e.owed, h.Src)
			e.quiet()
		}
	}

	if dup {
		e.counters.Duplicates++
		return nil, false
	}

	payload := wire.Payload(fr)

	// Response matching.
	if response {
		if p := e.find(h.Ack); p != nil && p.cb != nil {
			p.deadline.Stop()
			e.counters.Delivered++
			e.endRequest(p)(h, payload, nil)
		}
		return nil, false // a late or duplicate response is dropped
	}

	return payload, true
}

// source returns src's receive state, created on first use.
func (e *Endpoint) source(src wire.StationID) *replayWindow {
	i := slices.Index(e.sources, src)
	if i < 0 {
		i = len(e.sources)
		e.sources, e.heard = append(e.sources, src), append(e.heard, new(replayWindow))
	}
	return e.heard[i]
}

// Reset abandons all in-flight transport state, modeling a process
// crash: pending reliable frames and outstanding requests are dropped
// without invoking their callbacks (the process that registered them
// is gone), timers are stopped, and the duplicate windows and the
// replies kept are cleared.
// The sequence counter is kept, so a restarted endpoint does not reuse
// numbers its peers may still remember.
func (e *Endpoint) Reset() {
	for _, pr := range e.peers {
		if pr.timer != nil {
			pr.timer.Stop()
		}
		for _, p := range pr.ring {
			if p.buf != nil {
				p.span.SetAttr("error", "reset")
				p.span.End()
				p.buf.Release()
			}
			if p.cb != nil {
				p.deadline.Stop()
			}
			*p = pending{} // abandoned: a late timer finds nothing open
		}
		pr.ring, pr.frames = nil, 0
	}
	e.peers, e.inflightBytes = nil, 0
	e.ackOwed = false
	for _, w := range e.heard {
		e.release(w, ^uint64(0), 0)
	}
	if e.tellT != nil {
		e.tellT.Stop()
	}
	e.owed = nil
	e.sources, e.heard = nil, nil
}
