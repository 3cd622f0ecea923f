package dataplane

import (
	"repro/internal/trace"
	"repro/internal/wire"
)

// Handler consumes one decoded frame. It returns true when the frame
// was consumed; false lets the next handler registered for the type
// (or the default handler) try. Header and payload are borrowed: a
// handler that keeps payload bytes past its return must copy them.
type Handler func(h *wire.Header, payload []byte) bool

// Middleware wraps a dispatch chain. Middleware installed with Use
// sees every frame before type-based routing, so it can trace frames
// uniformly for all handlers.
type Middleware func(next Handler) Handler

// Stats is a snapshot of a mux's dispatch accounting. Unclaimed
// frames — a type nobody registered for, or one every handler
// declined — are counted as drops instead of vanishing silently.
type Stats struct {
	// Dispatched counts frames entering the mux.
	Dispatched uint64
	// Consumed counts frames some handler accepted.
	Consumed uint64
	// Dropped counts unclaimed frames (Dispatched - Consumed).
	Dropped uint64
	// DroppedByType breaks drops down by message type; types outside
	// the defined range are lumped into DroppedUnknown.
	DroppedByType [wire.NumMsgTypes]uint64
	// DroppedUnknown counts drops of frames whose type byte is not a
	// defined message type.
	DroppedUnknown uint64
}

// Mux routes decoded frames to handlers registered by message type.
// Registration order is dispatch order within a type; handlers for
// the same type form a chain that stops at the first consumer. The
// zero number of handlers plus no default means the frame is dropped
// and accounted. Mux is not safe for concurrent use; like the rest of
// the simulator it runs on the single event-loop goroutine.
type Mux struct {
	handlers [wire.NumMsgTypes][]Handler
	fallback Handler
	mw       []Middleware
	entry    Handler
	stats    Stats
}

// NewMux creates an empty mux.
func NewMux() *Mux {
	m := &Mux{}
	m.rebuild()
	return m
}

// Handle registers handlers for message type t, after any already
// registered for t.
func (m *Mux) Handle(t wire.MsgType, hs ...Handler) {
	m.handlers[t] = append(m.handlers[t], hs...)
}

// SetDefault installs a catch-all handler consulted when no typed
// handler consumes a frame (nil removes it). Frames the default
// handler declines are counted as drops.
func (m *Mux) SetDefault(h Handler) { m.fallback = h }

// Use appends middleware around the whole dispatch chain. The first
// middleware installed is the outermost.
func (m *Mux) Use(mw ...Middleware) {
	m.mw = append(m.mw, mw...)
	m.rebuild()
}

// rebuild composes the middleware chain around the core dispatcher.
func (m *Mux) rebuild() {
	h := m.route
	for i := len(m.mw) - 1; i >= 0; i-- {
		h = m.mw[i](h)
	}
	m.entry = h
}

// Dispatch routes one decoded frame, reporting whether any handler
// consumed it. Unconsumed frames increment the drop counters.
func (m *Mux) Dispatch(h *wire.Header, payload []byte) bool {
	m.stats.Dispatched++
	return m.entry(h, payload)
}

// route is the core dispatcher: typed handlers, then the default,
// then drop accounting.
func (m *Mux) route(h *wire.Header, payload []byte) bool {
	if int(h.Type) < len(m.handlers) {
		for _, fn := range m.handlers[h.Type] {
			if fn(h, payload) {
				m.stats.Consumed++
				return true
			}
		}
	}
	if m.fallback != nil && m.fallback(h, payload) {
		m.stats.Consumed++
		return true
	}
	m.stats.Dropped++
	if h.Type.Valid() {
		m.stats.DroppedByType[h.Type]++
	} else {
		m.stats.DroppedUnknown++
	}
	return false
}

// Stats returns a copy of the dispatch accounting.
func (m *Mux) Stats() Stats { return m.stats }

// ResetStats zeroes the dispatch accounting.
func (m *Mux) ResetStats() { m.stats = Stats{} }

// --- middleware ---

// dispatchNames pre-concatenates the per-type span names so the
// traced dispatch path does not build a string per frame.
var dispatchNames = func() [wire.NumMsgTypes]string {
	var names [wire.NumMsgTypes]string
	for t := range names {
		names[t] = "dispatch:" + wire.MsgType(t).String()
	}
	return names
}()

// dispatchName returns the span name for a dispatch of type t.
func dispatchName(t wire.MsgType) string {
	if int(t) < len(dispatchNames) {
		return dispatchNames[t]
	}
	return "dispatch:?"
}

// WithSpans records a handler-dispatch span around every traced frame
// (headers carrying wire.FlagTraced), parented to the span the sender
// stamped into the header — the receiver-side leaf of a cross-hop
// trace. Untraced frames pass through untouched.
func WithSpans(rec *trace.Recorder) Middleware {
	return func(next Handler) Handler {
		return func(h *wire.Header, payload []byte) bool {
			if h.Flags&wire.FlagTraced == 0 {
				return next(h, payload)
			}
			sp := rec.StartSpan(trace.Ctx{Trace: h.TraceID, Span: h.SpanID},
				trace.KindDispatch, dispatchName(h.Type))
			ok := next(h, payload)
			if !ok {
				sp.SetAttr("consumed", "false")
			}
			sp.End()
			return ok
		}
	}
}
