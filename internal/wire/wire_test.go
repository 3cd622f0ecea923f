package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/oid"
)

var gen = oid.NewSeededGenerator(55)

func sampleHeader() *Header {
	return &Header{
		Type:   MsgMem,
		Flags:  FlagReliable | FlagRouteOnObject,
		Src:    7,
		Dst:    9,
		Object: oid.ID{Hi: 0x1122334455667788, Lo: 0x99AABBCCDDEEFF00},
		Seq:    42,
		Ack:    41,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := sampleHeader()
	payload := []byte("the payload")
	fr, err := Encode(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != HeaderSize+len(payload) {
		t.Fatalf("frame len = %d", len(fr))
	}
	var got Header
	if err := got.DecodeFrom(fr); err != nil {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("decode = %+v, want %+v", got, *h)
	}
	if !bytes.Equal(Payload(fr), payload) {
		t.Fatalf("Payload = %q", Payload(fr))
	}
}

func TestEmptyPayload(t *testing.T) {
	fr, err := Encode(sampleHeader(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != HeaderSize {
		t.Fatalf("frame len = %d", len(fr))
	}
	if Payload(fr) != nil {
		t.Fatal("Payload of empty frame not nil")
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := Encode(sampleHeader(), []byte("xyz"))

	var h Header
	if err := h.DecodeFrom(good[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}

	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if err := h.DecodeFrom(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[2] = 9
	if err := h.DecodeFrom(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}

	if err := h.DecodeFrom(good[:HeaderSize+2]); !errors.Is(err, ErrBadLength) {
		t.Errorf("payload past the frame: %v", err)
	}

	// Flipping a payload-length byte must break the checksum.
	bad = append([]byte(nil), good...)
	bad[7] ^= 0x01
	if err := h.DecodeFrom(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("checksum: %v", err)
	}

	// A version-2 frame, 64-byte header, checksum and all, is refused
	// for its version.
	if err := h.DecodeFrom(v2Frame(sampleHeader(), []byte("xyz"))); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version-2 frame: %v", err)
	}

	// A frame as a version-1 station emits it — its own version byte and
	// the byte-wise FNV-32a sum that version used — is refused for its
	// version, whatever its checksum says.
	v1 := v2Frame(sampleHeader(), []byte("xyz"))
	v1[2] = 1
	copy(v1[12:16], []byte{0, 0, 0, 0})
	sum := uint32(2166136261)
	for _, c := range v1[:64] {
		sum = (sum ^ uint32(c)) * 16777619
	}
	binary.BigEndian.PutUint32(v1[12:16], sum)
	if err := h.DecodeFrom(v1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version-1 frame: %v", err)
	}
}

// TestChecksumCatchesFlipsAndSwaps: no single flipped bit and no two
// adjacent 64-bit words exchanged — the damage a sum over words would
// miss if it merely added them up — leaves a header DecodeFrom accepts,
// with and without the trace extension.
func TestChecksumCatchesFlipsAndSwaps(t *testing.T) {
	traced := sampleHeader()
	traced.Flags |= FlagTraced
	traced.TraceID, traced.SpanID, traced.ParentID = 0xA1, 0xB2, 0xC3
	for _, sample := range []*Header{sampleHeader(), traced} {
		good, err := Encode(sample, []byte("xyz"))
		if err != nil {
			t.Fatal(err)
		}
		var h Header
		hdrLen := sample.WireLen()
		for bit := 0; bit < 8*hdrLen; bit++ {
			bad := append([]byte(nil), good...)
			bad[bit/8] ^= 1 << (bit % 8)
			if err := h.DecodeFrom(bad); err == nil {
				t.Errorf("%d-byte header: flip of bit %d of byte %d undetected", hdrLen, bit%8, bit/8)
			}
		}
		for w := 0; w+16 <= hdrLen; w += 8 {
			bad := append([]byte(nil), good...)
			copy(bad[w:], good[w+8:w+16])
			copy(bad[w+8:], good[w:w+8])
			if bytes.Equal(bad, good) {
				t.Fatalf("%d-byte header: words %d and %d of the sample are equal, swapping them tests nothing", hdrLen, w/8, w/8+1)
			}
			if err := h.DecodeFrom(bad); err == nil {
				t.Errorf("%d-byte header: swap of words %d and %d undetected", hdrLen, w/8, w/8+1)
			}
		}
	}
}

// v2Frame encodes h as a version-2 station did: a 64-byte header with
// a 16-bit header length, a 32-bit payload length, 64-bit stations and
// numbers, and the word-wise checksum over eight words with the low
// half of word 1 read as zero.
func v2Frame(h *Header, payload []byte) []byte {
	b := make([]byte, 64+len(payload))
	binary.BigEndian.PutUint16(b[0:2], Magic)
	b[2], b[3] = 2, byte(h.Type)
	binary.BigEndian.PutUint16(b[4:6], uint16(h.Flags))
	binary.BigEndian.PutUint16(b[6:8], 64)
	binary.BigEndian.PutUint32(b[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint64(b[16:24], uint64(h.Src))
	binary.BigEndian.PutUint64(b[24:32], uint64(h.Dst))
	h.Object.PutBytes(b[32:48])
	binary.BigEndian.PutUint64(b[48:56], h.Seq)
	binary.BigEndian.PutUint64(b[56:64], h.Ack)
	sum := uint64(64)
	for i := 0; i < 64; i += 8 {
		w := binary.BigEndian.Uint64(b[i:])
		if i == 8 {
			w &^= 0xFFFFFFFF
		}
		sum = (sum ^ w) * 0x9E3779B97F4A7C15
		sum ^= sum >> 32
	}
	binary.BigEndian.PutUint32(b[12:16], uint32(sum))
	copy(b[64:], payload)
	return b
}

func TestEncodeTooLarge(t *testing.T) {
	if _, err := Encode(sampleHeader(), make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
	fr, err := Encode(sampleHeader(), make([]byte, MaxPayload))
	var h Header
	if err != nil || h.DecodeFrom(fr) != nil || int(h.PayloadLen) != MaxPayload {
		t.Fatalf("a MaxPayload frame: %v, decoded payload length %d", err, h.PayloadLen)
	}
}

// TestNumbersAbove32BitsRefused: a frame carries the low 32 bits of a
// sequence or ack number, which the transport puts there; a header
// holding more is refused, never truncated.
func TestNumbersAbove32BitsRefused(t *testing.T) {
	for _, h := range []*Header{{Type: MsgMem, Seq: 1 << 32}, {Type: MsgMem, Ack: 1<<32 + 5}} {
		if _, err := Encode(h, nil); !errors.Is(err, ErrRange) {
			t.Errorf("seq %d, ack %d: %v, want ErrRange", h.Seq, h.Ack, err)
		}
	}
	if _, err := Encode(&Header{Type: MsgMem, Seq: 1<<32 - 1, Ack: 1<<32 - 1}, nil); err != nil {
		t.Errorf("32-bit numbers refused: %v", err)
	}
}

func TestMarshalIntoShortBuffer(t *testing.T) {
	h := sampleHeader()
	if err := h.MarshalInto(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short buffer: %v", err)
	}
}

func TestPayloadBounds(t *testing.T) {
	if Payload([]byte("short")) != nil {
		t.Fatal("Payload of short frame")
	}
	// Payload length larger than the frame: clamp.
	h := sampleHeader()
	fr, _ := Encode(h, []byte("abcdef"))
	truncated := fr[:HeaderSize+3]
	if got := Payload(truncated); string(got) != "abc" {
		t.Fatalf("clamped payload = %q", got)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgMem.String() != "mem" || MsgDiscover.String() != "discover" {
		t.Fatal("MsgType names wrong")
	}
	if MsgType(200).String() != "msg(200)" {
		t.Fatalf("out-of-range name: %q", MsgType(200).String())
	}
	if MsgInvalid.Valid() || !MsgHello.Valid() || MsgType(100).Valid() {
		t.Fatal("Valid() wrong")
	}
}

// TestMsgTypeNumbering pins the values on the wire: a retired type
// keeps its value, so no type after it moves, and no frame may carry it.
func TestMsgTypeNumbering(t *testing.T) {
	if MsgRPC != 8 || msgRetired != 9 || MsgLocate != 10 || MsgLocateReply != 11 || MsgRaft != 12 || NumMsgTypes != 13 {
		t.Fatalf("rpc %d, retired %d, locate %d, locate-reply %d, raft %d, %d types", MsgRPC, msgRetired, MsgLocate, MsgLocateReply, MsgRaft, NumMsgTypes)
	}
	if msgRetired.Valid() || !MsgLocate.Valid() || !MsgRaft.Valid() {
		t.Fatal("a retired type is valid, or a live one is not")
	}
}

func TestStationString(t *testing.T) {
	if StationBroadcast.String() != "bcast" {
		t.Fatal("broadcast name")
	}
	if StationID(3).String() != "st3" {
		t.Fatal("station name")
	}
}

func TestFieldWidths(t *testing.T) {
	cases := map[Field]int{
		FieldType: 8, FieldFlags: 16, FieldSrc: 16,
		FieldDst: 16, FieldObject: 128, FieldSeq: 32, FieldTrace: 64,
	}
	for f, w := range cases {
		if f.Width() != w {
			t.Errorf("Width(%v) = %d, want %d", f, f.Width(), w)
		}
	}
	if Field(99).Width() != 0 || len(fieldNames) != int(FieldTrace)+1 {
		t.Error("invalid field")
	}
	if FieldObject.String() != "object" || Field(99).String() != "field(99)" {
		t.Error("field names")
	}
}

func TestExtract(t *testing.T) {
	h := sampleHeader()
	v, err := h.Extract(FieldObject)
	if err != nil || v != ValueOfID(h.Object) {
		t.Fatalf("Extract(object) = %v, %v", v, err)
	}
	v, _ = h.Extract(FieldType)
	if v.Lo != uint64(MsgMem) || v.Hi != 0 {
		t.Fatalf("Extract(type) = %v", v)
	}
	v, _ = h.Extract(FieldSrc)
	if v.Lo != 7 {
		t.Fatalf("Extract(src) = %v", v)
	}
	v, _ = h.Extract(FieldDst)
	if v.Lo != 9 {
		t.Fatalf("Extract(dst) = %v", v)
	}
	v, _ = h.Extract(FieldFlags)
	if Flags(v.Lo) != h.Flags {
		t.Fatalf("Extract(flags) = %v", v)
	}
	v, _ = h.Extract(FieldSeq)
	if v.Lo != 42 {
		t.Fatalf("Extract(seq) = %v", v)
	}
	h.TraceID = 0xABCDEF0123456789
	if v, _ = h.Extract(FieldTrace); v.Lo != h.TraceID || v.Hi != 0 {
		t.Fatalf("Extract(trace) = %v", v)
	}
	if _, err := h.Extract(Field(99)); err == nil {
		t.Fatal("Extract accepted unknown field")
	}
}

func TestPropertyHeaderRoundTrip(t *testing.T) {
	f := func(typ uint8, flags uint16, src, dst uint16, hi, lo uint64, seq, ack uint32, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		h := &Header{
			Type: MsgType(typ), Flags: Flags(flags),
			Src: StationID(src), Dst: StationID(dst),
			Object: oid.ID{Hi: hi, Lo: lo}, Seq: uint64(seq), Ack: uint64(ack),
		}
		fr, err := Encode(h, payload)
		if err != nil {
			return false
		}
		var got Header
		if err := got.DecodeFrom(fr); err != nil {
			return false
		}
		return got == *h && bytes.Equal(Payload(fr), payload) == (len(payload) > 0) ||
			(len(payload) == 0 && got == *h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	h := sampleHeader()
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(h, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	fr, _ := Encode(sampleHeader(), make([]byte, 256))
	var h Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := h.DecodeFrom(fr); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTracedHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	h.Flags |= FlagTraced
	h.TraceID, h.SpanID, h.ParentID = 0xA1, 0xB2, 0xC3
	payload := []byte("traced payload")
	fr, err := Encode(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) != TracedHeaderSize+len(payload) {
		t.Fatalf("frame len = %d, want %d", len(fr), TracedHeaderSize+len(payload))
	}
	if h.WireLen() != TracedHeaderSize {
		t.Fatalf("WireLen = %d", h.WireLen())
	}
	var got Header
	if err := got.DecodeFrom(fr); err != nil {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("decode = %+v, want %+v", got, *h)
	}
	if !bytes.Equal(Payload(fr), payload) {
		t.Fatalf("Payload = %q", Payload(fr))
	}
	tr, sp, par, ok := TraceContext(fr)
	if !ok || tr != 0xA1 || sp != 0xB2 || par != 0xC3 {
		t.Fatalf("TraceContext = %x %x %x %v", tr, sp, par, ok)
	}
}

func TestTraceContextUntraced(t *testing.T) {
	fr, err := Encode(sampleHeader(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := TraceContext(fr); ok {
		t.Fatal("TraceContext reported trace on untraced frame")
	}
	// Decoding an untraced frame must leave trace fields zero even if
	// the Header struct was previously used for a traced frame.
	h := Header{TraceID: 1, SpanID: 2, ParentID: 3}
	if err := h.DecodeFrom(fr); err != nil {
		t.Fatal(err)
	}
	if h.TraceID != 0 || h.SpanID != 0 || h.ParentID != 0 {
		t.Fatalf("stale trace fields survived decode: %+v", h)
	}
}

func TestTracedFlagLengthConsistency(t *testing.T) {
	h := sampleHeader()
	h.Flags |= FlagTraced
	h.TraceID = 7
	fr, err := Encode(h, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	// Truncating a traced frame to the untraced header length must not
	// decode as a valid untraced frame.
	var got Header
	if err := got.DecodeFrom(fr[:HeaderSize+3]); err == nil {
		t.Fatal("truncated traced frame decoded cleanly")
	}
}
