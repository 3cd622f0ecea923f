package dataplane

import (
	"testing"

	"repro/internal/oid"
	"repro/internal/wire"
)

// TestCarriedHeaderDecodes: the header an encoded buffer carries is what
// decoding its bytes gives — for a plain header, a traced one, and one
// with trace fields but no FlagTraced, which the wire does not carry —
// and a buffer GetBuf hands out carries none.
func TestCarriedHeaderDecodes(t *testing.T) {
	base := wire.Header{Type: wire.MsgMem, Flags: wire.FlagReliable, Src: 3, Dst: 9,
		Object: oid.ID{Hi: 1, Lo: 2}, Seq: 77, Ack: 5}
	traced := base
	traced.Flags |= wire.FlagTraced
	traced.TraceID, traced.SpanID, traced.ParentID = 10, 11, 12
	unflagged := traced
	unflagged.Flags = base.Flags
	for _, h := range []wire.Header{base, traced, unflagged} {
		b, err := EncodeFrameV(&h, []byte("pre"), []byte("body"))
		if err != nil {
			t.Fatal(err)
		}
		var got wire.Header
		if err := got.DecodeFrom(b.Bytes()); err != nil || b.Header() == nil || *b.Header() != got {
			t.Fatalf("encoded %+v: carries %+v, decodes to %+v (%v)", h, b.Header(), got, err)
		}
		b.Release()
	}
	if b := GetBuf(64); b.Header() != nil {
		t.Fatalf("GetBuf's buffer carries %+v", *b.Header())
	}
}

func TestLiveBufsBalance(t *testing.T) {
	base := LiveBufs()
	b1 := GetBuf(100)
	b2 := GetBuf(1 << 20) // over the largest class: unpooled path
	if got := LiveBufs(); got != base+2 {
		t.Fatalf("LiveBufs = %d, want %d", got, base+2)
	}
	b1.Retain()
	b1.Release()
	if got := LiveBufs(); got != base+2 {
		t.Fatalf("LiveBufs after retain/release = %d, want %d", got, base+2)
	}
	b1.Release()
	b2.Release()
	if got := LiveBufs(); got != base {
		t.Fatalf("LiveBufs after full release = %d, want %d", got, base)
	}
}
