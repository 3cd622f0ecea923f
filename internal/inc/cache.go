package inc

import (
	"repro/internal/memproto"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// The in-switch object cache. One switch — the home's first hop —
// caches a hot object's bytes, learned from read responses passing
// through; a claim byte flipped in the response keeps any second
// switch from caching the same bytes. The single-caching-switch
// invariant is what makes invalidation tractable: every frame that
// can mutate the object (writes, releases, invalidations, the home's
// explicit purge) must traverse the home's first hop, where it evicts
// the line and opens a shadow window long enough for stale responses
// already in flight to drain.

// handleMem inspects a MsgMem frame: serve reads from the cache,
// learn from read responses, evict on anything that mutates.
func (e *Engine) handleMem(ingress int, h *wire.Header, fr []byte) bool {
	payload := wire.Payload(fr)
	var m memproto.Msg
	if err := m.Unmarshal(payload); err != nil {
		return false
	}
	switch m.Op {
	case memproto.OpReadReq:
		return e.serveRead(ingress, h, &m)
	case memproto.OpReadResp:
		e.learn(h, payload, &m)
	case memproto.OpWriteReq, memproto.OpWriteResp,
		memproto.OpRelease, memproto.OpReleaseAck,
		memproto.OpInvalidate, memproto.OpInvalidateAck:
		e.invalidate(h.Object)
	}
	return false
}

// learn caches the bytes of a passing read response, if no switch
// upstream claimed it, the response is a whole unfragmented success,
// and the object is not inside a mutation shadow.
func (e *Engine) learn(h *wire.Header, payload []byte, m *memproto.Msg) {
	if m.Status != memproto.StatusOK || m.FragOffset != 0 || m.TotalLen != 0 {
		return
	}
	if len(m.Data) == 0 || len(m.Data) > CacheLine {
		return
	}
	if payload[memproto.IncCacheClaimOff] != 0 {
		return // another switch already caches these bytes
	}
	if _, shadowed := e.shadow[h.Object]; shadowed {
		return // a mutation passed recently; these bytes may predate it
	}
	err := e.cacheTable.Insert(p4sim.Entry{Match: []p4sim.KeyValue{{Value: wire.ValueOfID(h.Object)}}})
	if err != nil {
		return
	}
	// Claim in flight: the header checksum does not cover the payload,
	// so the reserved byte flips without re-encoding.
	payload[memproto.IncCacheClaimOff] = 1
	e.lines[h.Object] = &cacheLine{
		home:    h.Src,
		off:     m.Offset,
		version: m.Version,
		data:    append([]byte(nil), m.Data...),
	}
	e.counters.CacheInserts++
}

// serveRead answers a read from the cached line when the request is
// addressed to the station the bytes came from and the line covers
// the requested range. Consuming the request, the switch must speak
// for the home completely: an ack to stop the requester's
// retransmission (reliable requests) plus the response.
func (e *Engine) serveRead(ingress int, h *wire.Header, m *memproto.Msg) bool {
	line, ok := e.lines[h.Object]
	if !ok {
		return false
	}
	// Serve only requests explicitly addressed to the caching line's
	// home: object-routed frames (StationAny) or a moved home would
	// otherwise let a bypassed switch serve stale bytes.
	if h.Dst != line.home || m.Length == 0 {
		e.counters.CacheMisses++
		return false
	}
	if _, hit := e.cacheTable.Lookup(h); !hit {
		// Rule recycled underneath (OnEvict keeps lines in sync, so
		// this is defensive only).
		delete(e.lines, h.Object)
		return false
	}
	end := m.Offset + uint64(m.Length)
	if m.Offset < line.off || end > line.off+uint64(len(line.data)) {
		e.counters.CacheMisses++
		return false
	}
	rm := memproto.Msg{
		Op: memproto.OpReadResp, Status: memproto.StatusOK,
		Offset: m.Offset, Version: line.version,
		Data: line.data[m.Offset-line.off : end-line.off],
	}
	frame, err := replyFrame(e.dp, h,
		wire.Header{Type: wire.MsgMem, Flags: wire.FlagResponse, Object: h.Object}, rm.Marshal(nil))
	if err != nil {
		return false
	}
	if h.Flags&wire.FlagReliable != 0 {
		if af, aerr := replyFrame(e.dp, h, wire.Header{Type: wire.MsgAck}, nil); aerr == nil {
			e.dp.EmitFrame(ingress, af)
		}
	}
	e.dp.EmitFrame(ingress, frame)
	e.counters.CacheHits++
	return true
}

// invalidate drops the cached line (if any) and shadows the object so
// in-flight pre-mutation responses cannot re-seed it.
func (e *Engine) invalidate(obj oid.ID) {
	if e.cacheTable == nil {
		return
	}
	e.shadowObj(obj)
	if _, ok := e.lines[obj]; !ok {
		return
	}
	delete(e.lines, obj)
	e.cacheTable.Delete([]p4sim.KeyValue{{Value: wire.ValueOfID(obj)}})
	e.counters.CacheInvalidates++
}

// shadowObj opens (or extends) the object's learn-suppression window.
func (e *Engine) shadowObj(obj oid.ID) {
	e.shadowSeq++
	seq := e.shadowSeq
	e.shadow[obj] = seq
	e.dp.ScheduleAfter(CacheShadow, func() {
		if e.shadow[obj] == seq {
			delete(e.shadow, obj)
		}
	})
}
