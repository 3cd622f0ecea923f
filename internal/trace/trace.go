// Package trace is the causal, cross-hop tracing substrate: spans
// recorded against the backend clock, with trace context
// carried in the GASP wire header (wire.FlagTraced + the 24-byte
// header extension) so a single operation's span tree covers
// transport sends, every switch hop, link traversal, retransmissions,
// and handler dispatch on the far side.
//
// Determinism contract: the recorder never schedules simulation
// events and never consumes simulation randomness. Sampling is a
// per-operation counter, so with sampling disabled no frame carries
// FlagTraced and the simulation's event stream is bit-identical to an
// untraced run; unsampled operations leave no fingerprint even with
// the recorder live. A *sampled* operation's frames do carry the
// 24-byte header extension, so — as with any in-band tracing system —
// the latency it reports includes the cost of carrying the context.
package trace

import (
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/wire"
)

// Config controls a Recorder.
type Config struct {
	// SampleEvery traces every Nth root operation: 1 traces all,
	// 0 disables tracing entirely. Sampling is counter-based (no
	// randomness) so runs are reproducible.
	SampleEvery int
}

// DefaultMaxSpans bounds a recorder's retained spans. Once full, new
// spans are counted but not recorded.
const DefaultMaxSpans = 1 << 20

// Kind categorizes a span for the critical-path breakdown.
type Kind uint8

// Span kinds, one per instrumented layer.
const (
	KindOp       Kind = iota // operation root (acquire/read/invoke/...)
	KindResolve              // discovery resolution
	KindRPC                  // rpc call envelope
	KindSend                 // transport send (reliable: until acked)
	KindRetrans              // retransmission marker
	KindLink                 // link traversal (queue + tx + propagation)
	KindSwitch               // switch pipeline (table lookups)
	KindDispatch             // receiver-side handler dispatch
	KindInstall              // controller rule-install delay
	KindOther

	numKinds
)

var kindNames = [...]string{
	"op", "resolve", "rpc", "send", "rtx", "link", "switch",
	"dispatch", "install", "other",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Attr is a key/value annotation on a span.
type Attr struct {
	Key, Val string
}

// Span is one timed interval on the virtual clock, linked into a
// trace's tree by parent span ID. All span methods are nil-safe so
// instrumentation sites can call through unconditionally; with
// tracing disabled or the operation unsampled every span pointer is
// nil and the call is a no-op.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Kind   Kind
	Name   string
	Start  backend.Time
	Finish backend.Time
	Attrs  []Attr

	rec  *Recorder
	open bool
}

// Ctx is a span's wire-portable trace context: what gets stamped into
// a header so downstream hops can parent their spans causally. The
// zero Ctx means "untraced".
type Ctx struct {
	Trace uint64
	Span  uint64
}

// Traced reports whether the context carries a sampled trace.
func (c Ctx) Traced() bool { return c.Trace != 0 }

// FromHeader extracts the context a received frame carries (the zero
// Ctx for untraced frames), so responder-side sends can chain their
// frames causally under the requester's span.
func FromHeader(h *wire.Header) Ctx {
	if h.Flags&wire.FlagTraced == 0 {
		return Ctx{}
	}
	return Ctx{Trace: h.TraceID, Span: h.SpanID}
}

// Inject stamps the context into a header and sets FlagTraced. A zero
// context is a no-op, so callers can inject unconditionally.
func (c Ctx) Inject(h *wire.Header) {
	if !c.Traced() {
		return
	}
	h.TraceID = c.Trace
	h.SpanID = c.Span
	h.Flags |= wire.FlagTraced
}

// Recorder collects spans for one cluster. A nil *Recorder is valid
// and records nothing. Nodes may record at once, each its own spans.
type Recorder struct {
	clock    backend.Clock
	cfg      Config
	maxSpans int           // DefaultMaxSpans; a test lowers it to reach the bound
	ops      atomic.Uint64 // root-operation counter for sampling
	dropped  atomic.Uint64
	mu       sync.Mutex // guards the rest
	nextID   uint64
	spans    []*Span
}

// NewRecorder builds a recorder reading time from sim. Returns nil
// when cfg disables sampling, so wiring code can treat "tracing off"
// and "no recorder" identically.
func NewRecorder(clock backend.Clock, cfg Config) *Recorder {
	if cfg.SampleEvery <= 0 {
		return nil
	}
	return &Recorder{clock: clock, cfg: cfg, maxSpans: DefaultMaxSpans}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// now reads the virtual clock.
func (r *Recorder) now() backend.Time { return r.clock.Now() }

// alloc registers a span, honoring the retention bound.
func (r *Recorder) alloc(s *Span) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.maxSpans {
		r.dropped.Add(1)
		return nil
	}
	r.nextID++
	s.ID = r.nextID
	s.rec = r
	s.open = true
	r.spans = append(r.spans, s)
	return s
}

// StartRoot begins a new trace if this operation is sampled, and
// returns its root span (nil when unsampled or r is nil). The root
// span's ID doubles as the trace ID.
func (r *Recorder) StartRoot(name string) *Span {
	if r == nil {
		return nil
	}
	if (r.ops.Add(1)-1)%uint64(r.cfg.SampleEvery) != 0 {
		return nil
	}
	s := r.alloc(&Span{Kind: KindOp, Name: name, Start: r.now()})
	if s == nil {
		return nil
	}
	s.Trace = s.ID
	return s
}

// StartSpan begins a child span under ctx at the current virtual
// time. Returns nil (a no-op span) for an untraced ctx or nil r.
func (r *Recorder) StartSpan(ctx Ctx, kind Kind, name string) *Span {
	if r == nil || !ctx.Traced() {
		return nil
	}
	return r.alloc(&Span{
		Trace: ctx.Trace, Parent: ctx.Span,
		Kind: kind, Name: name, Start: r.now(),
	})
}

// StartSpanAt is StartSpan with an explicit start time, for hops
// whose interval is known analytically (link occupancy, pipeline
// delay) rather than bracketed by callbacks.
func (r *Recorder) StartSpanAt(ctx Ctx, kind Kind, name string, start backend.Time) *Span {
	s := r.StartSpan(ctx, kind, name)
	if s != nil {
		s.Start = start
	}
	return s
}

// Mark records an instantaneous (zero-duration) span — retransmit
// markers, drops.
func (r *Recorder) Mark(ctx Ctx, kind Kind, name string) *Span {
	s := r.StartSpan(ctx, kind, name)
	s.End()
	return s
}

// Spans returns all recorded spans in creation order. The recorder
// retains ownership; callers must not mutate.
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// Dropped reports spans lost to the DefaultMaxSpans bound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Reset discards recorded spans (the sampling counter keeps running
// so operation parity is preserved across resets).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
	r.dropped.Store(0)
}

// LinkHook returns a frame-span hook recording a link-traversal
// span for every traced frame, decomposed into queueing, serialization
// and propagation time via attributes. Install with
// Network.SetFrameSpanHook.
func (r *Recorder) LinkHook() func(from, to string, fr backend.Frame,
	sent, arrival backend.Time, queued, tx backend.Duration, dropped bool) {
	if r == nil {
		return nil
	}
	return func(from, to string, fr backend.Frame, sent, arrival backend.Time, queued, tx backend.Duration, dropped bool) {
		traceID, spanID, _, ok := wire.TraceContext(fr)
		if !ok {
			return
		}
		s := r.StartSpanAt(Ctx{Trace: traceID, Span: spanID}, KindLink,
			"link:"+from+"->"+to, sent)
		if s == nil {
			return
		}
		s.SetAttr("queue", queued.String())
		s.SetAttr("tx", tx.String())
		if dropped {
			s.SetAttr("dropped", "true")
			s.EndAt(sent.Add(queued + tx))
			return
		}
		s.SetAttr("prop", (arrival.Sub(sent) - queued - tx).String())
		s.EndAt(arrival)
	}
}

// Ctx returns the span's wire-portable context (zero for nil spans).
func (s *Span) Ctx() Ctx {
	if s == nil {
		return Ctx{}
	}
	return Ctx{Trace: s.Trace, Span: s.ID}
}

// End closes the span at the current virtual time. Nil-safe and
// idempotent (the first End wins).
func (s *Span) End() {
	if s == nil || !s.open {
		return
	}
	s.EndAt(s.rec.now())
}

// EndAt closes the span at an explicit time.
func (s *Span) EndAt(t backend.Time) {
	if s == nil || !s.open {
		return
	}
	s.open = false
	s.Finish = t
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// Duration returns Finish - Start (zero for nil or open spans).
func (s *Span) Duration() backend.Duration {
	if s == nil || s.open {
		return 0
	}
	return s.Finish.Sub(s.Start)
}
