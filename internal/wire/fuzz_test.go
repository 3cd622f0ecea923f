package wire

import (
	"testing"

	"repro/internal/oid"
)

// FuzzHeaderDecode ensures DecodeFrom never panics and that anything
// it accepts re-encodes to an identical header. Run the corpus with
// plain `go test`; extend it with `go test -fuzz=FuzzHeaderDecode`.
func FuzzHeaderDecode(f *testing.F) {
	good, _ := Encode(&Header{
		Type: MsgMem, Flags: FlagReliable, Src: 1, Dst: 2,
		Object: oid.ID{Hi: 3, Lo: 4}, Seq: 5, Ack: 6,
	}, []byte("payload"))
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Add(good[:HeaderSize-1])
	mut := append([]byte(nil), good...)
	mut[3] = 0xFF
	f.Add(mut)
	traced, _ := Encode(&Header{
		Type: MsgMem, Flags: FlagReliable | FlagTraced, Src: 1, Dst: 2,
		Seq: 5, TraceID: 7, SpanID: 8, ParentID: 9,
	}, []byte("payload"))
	f.Add(traced)
	f.Add(traced[:TracedHeaderSize-1])
	v1 := append([]byte(nil), good...)
	v1[2] = 1
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		if err := h.DecodeFrom(data); err != nil {
			return // rejected is fine; panics are not
		}
		// Accepted headers must round-trip.
		re, err := Encode(&h, Payload(data))
		if err != nil {
			t.Fatalf("re-encode of accepted header failed: %v", err)
		}
		var h2 Header
		if err := h2.DecodeFrom(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if h2 != h {
			t.Fatalf("round trip changed header: %+v vs %+v", h, h2)
		}
	})
}
