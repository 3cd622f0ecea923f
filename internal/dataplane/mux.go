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
	tracer   *trace.Recorder
	stats    Stats
}

// NewMux creates an empty mux.
func NewMux() *Mux { return &Mux{} }

// Handle registers handlers for message type t, after any already
// registered for t.
func (m *Mux) Handle(t wire.MsgType, hs ...Handler) {
	m.handlers[t] = append(m.handlers[t], hs...)
}

// SetDefault installs a catch-all handler consulted when no typed
// handler consumes a frame (nil removes it). Frames the default
// handler declines are counted as drops.
func (m *Mux) SetDefault(h Handler) { m.fallback = h }

// SetTracer sets the recorder of dispatch spans (nil, the default,
// records none): every traced frame (a header carrying wire.FlagTraced)
// gets a handler-dispatch span around its routing, parented to the span
// the sender stamped into the header — the receiver-side leaf of a
// cross-hop trace.
func (m *Mux) SetTracer(rec *trace.Recorder) { m.tracer = rec }

// Dispatch routes one decoded frame, reporting whether any handler
// consumed it. Unconsumed frames increment the drop counters.
func (m *Mux) Dispatch(h *wire.Header, payload []byte) bool {
	m.stats.Dispatched++
	if m.tracer == nil || h.Flags&wire.FlagTraced == 0 {
		return m.route(h, payload)
	}
	sp := m.tracer.StartSpan(trace.Ctx{Trace: h.TraceID, Span: h.SpanID},
		trace.KindDispatch, dispatchName(h.Type))
	ok := m.route(h, payload)
	if !ok {
		sp.SetAttr("consumed", "false")
	}
	sp.End()
	return ok
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
