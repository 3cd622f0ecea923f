package dataplane

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

func TestBufRefCounting(t *testing.T) {
	b := GetBuf(100)
	if b.Len() != 100 {
		t.Fatalf("len = %d, want 100", b.Len())
	}
	if b.Refs() != 1 {
		t.Fatalf("fresh buf refs = %d, want 1", b.Refs())
	}
	b.Retain()
	if b.Refs() != 2 {
		t.Fatalf("after Retain refs = %d, want 2", b.Refs())
	}
	b.Release()
	if b.Refs() != 1 {
		t.Fatalf("after Release refs = %d, want 1", b.Refs())
	}
	b.Release()
}

func TestBufOverReleasePanics(t *testing.T) {
	// An unpooled buffer so the over-released buf cannot poison a pool.
	b := &Buf{b: make([]byte, 8)}
	b.refs.Store(1)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	b.Release()
}

func TestBufPoolReuse(t *testing.T) {
	b := GetBuf(64)
	b.Bytes()[0] = 0xAA
	first := b
	b.Release()
	// sync.Pool gives no reuse guarantee, but single-goroutine
	// get-after-put normally returns the same object; tolerate either,
	// only require a correctly sized, fully owned buffer.
	c := GetBuf(64)
	defer c.Release()
	if c.Len() != 64 || c.Refs() != 1 {
		t.Fatalf("reused buf len = %d refs = %d", c.Len(), c.Refs())
	}
	if c == first && cap(c.Bytes()) < 64 {
		t.Fatal("reused buffer lost its capacity")
	}
}

func TestBufOversizeUnpooled(t *testing.T) {
	n := wire.TracedHeaderSize + wire.MaxPayload + 1
	b := GetBuf(n)
	if b.Len() != n {
		t.Fatalf("len = %d, want %d", b.Len(), n)
	}
	if b.pool != nil {
		t.Fatal("oversize buffer should not be pooled")
	}
	b.Release()
}

func TestEncodeFrameMatchesWireEncode(t *testing.T) {
	h := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: 7}
	payload := []byte("the payload")
	want, err := wire.Encode(&h, payload)
	if err != nil {
		t.Fatal(err)
	}
	h2 := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: 7}
	b, err := EncodeFrame(&h2, payload)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("EncodeFrame bytes differ from wire.Encode:\n got %x\nwant %x", b.Bytes(), want)
	}
	var dec wire.Header
	if err := dec.DecodeFrom(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	if dec.Type != wire.MsgMem || dec.Seq != 7 || !bytes.Equal(wire.Payload(b.Bytes()), payload) {
		t.Fatalf("round trip mismatch: %+v", dec)
	}
}

func TestEncodeFrameTooLarge(t *testing.T) {
	live := LiveBufs()
	h := wire.Header{Type: wire.MsgMem}
	if _, err := EncodeFrame(&h, make([]byte, wire.MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if _, err := EncodeFrameV(&h, make([]byte, 44), make([]byte, wire.MaxPayload-43)); err == nil {
		t.Fatal("oversized two-piece payload accepted")
	}
	if LiveBufs() != live {
		t.Fatalf("refused frames hold %d buffers", LiveBufs()-live)
	}
}

// TestEncodeFrameVIsEncodeFrameOfTheWhole: splitting a payload into
// (prefix, body) anywhere changes no byte of the frame, and the frame
// owns its bytes once the call returns.
func TestEncodeFrameVIsEncodeFrameOfTheWhole(t *testing.T) {
	payload := []byte("a header in front of bytes that sit elsewhere")
	for _, traced := range []bool{false, true} {
		h := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: 7}
		if traced {
			h.Flags |= wire.FlagTraced
			h.TraceID, h.SpanID = 5, 6
		}
		hw := h
		whole, err := EncodeFrame(&hw, payload)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(payload); cut++ {
			hv := h
			body := append([]byte(nil), payload[cut:]...)
			b, err := EncodeFrameV(&hv, payload[:cut], body)
			if err != nil {
				t.Fatal(err)
			}
			for i := range body {
				body[i] = 0xEE // the caller's region changes after the call
			}
			if !bytes.Equal(b.Bytes(), whole.Bytes()) || hv.PayloadLen != hw.PayloadLen {
				t.Fatalf("traced=%v cut %d: frame differs from EncodeFrame of the whole payload", traced, cut)
			}
			b.Release()
		}
		whole.Release()
	}
}

func TestMuxDispatchByType(t *testing.T) {
	m := NewMux()
	var memCalls, rpcCalls int
	m.Handle(wire.MsgMem, func(h *wire.Header, p []byte) bool { memCalls++; return true })
	m.Handle(wire.MsgRPC, func(h *wire.Header, p []byte) bool { rpcCalls++; return true })

	if !m.Dispatch(&wire.Header{Type: wire.MsgMem}, nil) {
		t.Fatal("mem frame not consumed")
	}
	if !m.Dispatch(&wire.Header{Type: wire.MsgRPC}, nil) {
		t.Fatal("rpc frame not consumed")
	}
	if memCalls != 1 || rpcCalls != 1 {
		t.Fatalf("calls = %d, %d", memCalls, rpcCalls)
	}
	st := m.Stats()
	if st.Dispatched != 2 || st.Consumed != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMuxHandlerChain(t *testing.T) {
	// Two handlers for one type: dispatch stops at the first consumer
	// (the MsgRPC server/client pattern).
	m := NewMux()
	var order []string
	m.Handle(wire.MsgRPC,
		func(h *wire.Header, p []byte) bool { order = append(order, "server"); return h.Seq == 1 },
		func(h *wire.Header, p []byte) bool { order = append(order, "client"); return true },
	)
	m.Dispatch(&wire.Header{Type: wire.MsgRPC, Seq: 1}, nil)
	m.Dispatch(&wire.Header{Type: wire.MsgRPC, Seq: 2}, nil)
	want := []string{"server", "server", "client"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMuxDefaultHandler(t *testing.T) {
	m := NewMux()
	var got wire.MsgType
	m.SetDefault(func(h *wire.Header, p []byte) bool { got = h.Type; return true })
	if !m.Dispatch(&wire.Header{Type: wire.MsgHello}, nil) {
		t.Fatal("default handler not consulted")
	}
	if got != wire.MsgHello {
		t.Fatalf("got type %v", got)
	}
	m.SetDefault(nil)
	if m.Dispatch(&wire.Header{Type: wire.MsgHello}, nil) {
		t.Fatal("consumed after default removed")
	}
}

func TestMuxDropAccounting(t *testing.T) {
	m := NewMux()
	m.Handle(wire.MsgMem, func(h *wire.Header, p []byte) bool { return false })

	// Declined by its handler.
	m.Dispatch(&wire.Header{Type: wire.MsgMem}, nil)
	// No handler at all.
	m.Dispatch(&wire.Header{Type: wire.MsgRPC}, nil)
	// Not a defined type.
	m.Dispatch(&wire.Header{Type: wire.MsgType(200)}, nil)

	st := m.Stats()
	if st.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", st.Dropped)
	}
	if st.DroppedByType[wire.MsgMem] != 1 || st.DroppedByType[wire.MsgRPC] != 1 {
		t.Fatalf("per-type drops = %v", st.DroppedByType)
	}
	if st.DroppedUnknown != 1 {
		t.Fatalf("DroppedUnknown = %d, want 1", st.DroppedUnknown)
	}
	m.ResetStats()
	if st := m.Stats(); st.Dispatched != 0 || st.Dropped != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestMuxMalformedAndTruncatedFramesNeverPanic(t *testing.T) {
	// Frames that fail header validation never reach a mux in the real
	// stack (transport counts them as ParseDrops); this exercises the
	// mux against every decode outcome anyway — garbage that happens to
	// decode must be dispatched or counted, never panic.
	m := NewMux()
	m.Handle(wire.MsgMem, func(h *wire.Header, p []byte) bool { return true })

	good, err := wire.Encode(&wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2}, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	badSum := append([]byte(nil), good...)
	badSum[18] ^= 0xFF // corrupt Ack field; checksum no longer matches
	unknownType, err := wire.Encode(&wire.Header{Type: wire.MsgType(77), Src: 1, Dst: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		fr      []byte
		decodes bool
	}{
		{"empty", nil, false},
		{"truncated header", good[:10], false},
		{"bad magic", badMagic, false},
		{"bad checksum", badSum, false},
		{"garbage", bytes.Repeat([]byte{0x5A}, 64), false},
		{"valid", good, true},
		{"unknown type", unknownType, true},
	}
	var wantDrops uint64
	for _, tc := range cases {
		var h wire.Header
		err := h.DecodeFrom(tc.fr)
		if (err == nil) != tc.decodes {
			t.Fatalf("%s: decode err = %v, want decodes=%v", tc.name, err, tc.decodes)
		}
		if err != nil {
			continue
		}
		consumed := m.Dispatch(&h, wire.Payload(tc.fr))
		if !consumed {
			wantDrops++
		}
	}
	st := m.Stats()
	if st.DroppedUnknown != 1 || st.Dropped != wantDrops {
		t.Fatalf("stats = %+v, want %d drops incl. 1 unknown", st, wantDrops)
	}
}
