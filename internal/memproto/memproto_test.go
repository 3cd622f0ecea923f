package memproto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := &Msg{
		Op: OpReadResp, Status: StatusOK, Perm: PermShared,
		Length: 128, Offset: 0x1000, Version: 7,
		FragOffset: 64, TotalLen: 256, Data: []byte("payload bytes"),
	}
	enc := m.Marshal(nil)
	if want := headerSize + len(m.Data); len(enc) != want {
		t.Fatalf("encoded %d bytes, want %d", len(enc), want)
	}
	var got Msg
	if err := got.Unmarshal(enc); err != nil {
		t.Fatal(err)
	}
	if got.Op != m.Op || got.Status != m.Status || got.Perm != m.Perm ||
		got.Length != m.Length || got.Offset != m.Offset || got.Version != m.Version ||
		got.FragOffset != m.FragOffset || got.TotalLen != m.TotalLen ||
		!bytes.Equal(got.Data, m.Data) {
		t.Fatalf("round trip: %+v != %+v", got, *m)
	}
}

func TestMarshalAppends(t *testing.T) {
	m := &Msg{Op: OpReadReq, Length: 8}
	prefix := []byte("prefix")
	enc := m.Marshal(prefix)
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("Marshal clobbered prefix")
	}
	var got Msg
	if err := got.Unmarshal(enc[len(prefix):]); err != nil {
		t.Fatal(err)
	}
	if got.Op != OpReadReq || got.Length != 8 {
		t.Fatalf("got %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var m Msg
	if err := m.Unmarshal(make([]byte, 10)); !errors.Is(err, ErrShort) {
		t.Fatalf("short: %v", err)
	}
	// Invalid op.
	enc := (&Msg{Op: OpReadReq}).Marshal(nil)
	enc[0] = 0
	if err := m.Unmarshal(enc); err == nil {
		t.Fatal("accepted invalid op")
	}
	enc[0] = byte(opCount)
	if err := m.Unmarshal(enc); err == nil {
		t.Fatal("accepted out-of-range op")
	}
	// Data length beyond buffer.
	enc2 := (&Msg{Op: OpReadResp, Data: []byte("abc")}).Marshal(nil)
	enc2[43] = 200
	if err := m.Unmarshal(enc2); !errors.Is(err, ErrShort) {
		t.Fatalf("bad data length: %v", err)
	}
}

func TestEmptyDataNil(t *testing.T) {
	enc := (&Msg{Op: OpWriteResp}).Marshal(nil)
	var got Msg
	if err := got.Unmarshal(enc); err != nil {
		t.Fatal(err)
	}
	if got.Data != nil {
		t.Fatal("empty data not nil")
	}
}

func TestOpNames(t *testing.T) {
	if OpAcquire.String() != "acquire" || OpInvalidateAck.String() != "invalidate-ack" {
		t.Fatal("op names")
	}
	if Op(99).String() != "op(99)" {
		t.Fatal("out-of-range op name")
	}
	if OpInvalid.Valid() || Op(99).Valid() || !OpGrant.Valid() {
		t.Fatal("Valid()")
	}
}

func TestStatus(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Fatal("StatusOK.Err() != nil")
	}
	if StatusNotFound.Err() == nil || StatusDenied.Err() == nil {
		t.Fatal("non-OK status without error")
	}
	if StatusConflict.String() != "conflict" || Status(99).String() != "status(99)" {
		t.Fatal("status names")
	}
	if PermShared.String() != "shared" || Perm(9).String() != "perm(9)" {
		t.Fatal("perm names")
	}
}

func TestFragmentReassemble(t *testing.T) {
	raw := make([]byte, 200_000)
	for i := range raw {
		raw[i] = byte(i * 31)
	}
	frags := Fragment(raw, 5, 0)
	if len(frags) < 3 {
		t.Fatalf("expected multiple fragments, got %d", len(frags))
	}
	var r Reassembler
	done := false
	for i, f := range frags {
		var err error
		done, err = r.Add(&f)
		if err != nil {
			t.Fatal(err)
		}
		if done && i != len(frags)-1 {
			t.Fatal("done before last fragment")
		}
	}
	if !done {
		t.Fatal("not done after all fragments")
	}
	if !bytes.Equal(r.Bytes(), raw) {
		t.Fatal("reassembly mismatch")
	}
	if r.Version() != 5 {
		t.Fatalf("version = %d", r.Version())
	}
}

func TestFragmentOutOfOrder(t *testing.T) {
	raw := make([]byte, 10_000)
	for i := range raw {
		raw[i] = byte(i)
	}
	frags := Fragment(raw, 1, 1024)
	var r Reassembler
	// Deliver in reverse.
	done := false
	for i := len(frags) - 1; i >= 0; i-- {
		var err error
		done, err = r.Add(&frags[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	if !done || !bytes.Equal(r.Bytes(), raw) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestFragmentEmpty(t *testing.T) {
	frags := Fragment(nil, 2, 0)
	if len(frags) != 1 {
		t.Fatalf("empty fragment count = %d", len(frags))
	}
	var r Reassembler
	done, err := r.Add(&frags[0])
	if err != nil || !done {
		t.Fatalf("empty reassembly: done=%v err=%v", done, err)
	}
	if len(r.Bytes()) != 0 {
		t.Fatal("empty object bytes")
	}
}

func TestReassemblerErrors(t *testing.T) {
	var r Reassembler
	if _, err := r.Add(&Msg{Op: OpReadReq}); err == nil {
		t.Fatal("accepted non-push")
	}
	r2 := Reassembler{}
	r2.Add(&Msg{Op: OpObjectPush, TotalLen: 100, Data: make([]byte, 50)})
	if _, err := r2.Add(&Msg{Op: OpObjectPush, TotalLen: 200}); err == nil {
		t.Fatal("accepted total mismatch")
	}
	if _, err := r2.Add(&Msg{Op: OpObjectPush, TotalLen: 100, FragOffset: 90, Data: make([]byte, 20)}); err == nil {
		t.Fatal("accepted overflow fragment")
	}
}

func TestReassemblerDuplicateFragments(t *testing.T) {
	raw := make([]byte, 3000)
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	frags := Fragment(raw, 4, 1024) // 1024 + 1024 + 952
	if len(frags) != 3 {
		t.Fatalf("fragment count = %d", len(frags))
	}
	var r Reassembler
	// Three copies of fragment 0 sum past TotalLen but cover 1024 bytes:
	// the transfer must not complete.
	for i := 0; i < 3; i++ {
		done, err := r.Add(&frags[0])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("duplicate bytes completed a transfer with holes")
		}
	}
	if done, err := r.Add(&frags[1]); err != nil || done {
		t.Fatalf("after frag 1: done=%v err=%v", done, err)
	}
	done, err := r.Add(&frags[2])
	if err != nil || !done {
		t.Fatalf("after frag 2: done=%v err=%v", done, err)
	}
	if !bytes.Equal(r.Bytes(), raw) {
		t.Fatal("reassembly mismatch")
	}
}

func TestReassemblerOverlappingFragments(t *testing.T) {
	raw := make([]byte, 1000)
	for i := range raw {
		raw[i] = byte(i * 3)
	}
	mk := func(off, end int) *Msg {
		return &Msg{Op: OpObjectPush, TotalLen: 1000, FragOffset: uint64(off), Data: raw[off:end]}
	}
	var r Reassembler
	// [0,600) + [100,500) overlap entirely inside: 900 bytes summed but
	// only 600 covered.
	if done, _ := r.Add(mk(0, 600)); done {
		t.Fatal("done early")
	}
	if done, _ := r.Add(mk(100, 500)); done {
		t.Fatal("interior overlap completed transfer with a hole")
	}
	// [400,1000) overlaps the front span and closes the hole.
	done, err := r.Add(mk(400, 1000))
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if !bytes.Equal(r.Bytes(), raw) {
		t.Fatal("reassembly mismatch")
	}
}

func TestReassemblerVersionSkew(t *testing.T) {
	raw := make([]byte, 2048)
	frags := Fragment(raw, 1, 1024)
	var r Reassembler
	if _, err := r.Add(&frags[0]); err != nil {
		t.Fatal(err)
	}
	skewed := frags[1]
	skewed.Version = 2
	if _, err := r.Add(&skewed); err == nil {
		t.Fatal("accepted fragment from a different object version")
	}
	// The matching-version fragment still completes the transfer.
	if done, err := r.Add(&frags[1]); err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
}

func TestPropertyFragmentReassemble(t *testing.T) {
	f := func(data []byte, maxData uint16) bool {
		frags := Fragment(data, 3, int(maxData))
		var r Reassembler
		done := false
		for i := range frags {
			var err error
			done, err = r.Add(&frags[i])
			if err != nil {
				return false
			}
		}
		return done && bytes.Equal(r.Bytes(), data) == (len(data) > 0) ||
			(len(data) == 0 && done)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMsgRoundTrip(t *testing.T) {
	f := func(op uint8, status, perm uint8, length uint32, off, ver, fo, tl uint64, data []byte) bool {
		o := Op(op%uint8(opCount-1)) + 1
		m := &Msg{
			Op: o, Status: Status(status), Perm: Perm(perm),
			Length: length, Offset: off, Version: ver,
			FragOffset: fo, TotalLen: tl, Data: data,
		}
		var got Msg
		if err := got.Unmarshal(m.Marshal(nil)); err != nil {
			return false
		}
		return got.Op == m.Op && got.Offset == m.Offset &&
			got.TotalLen == m.TotalLen && bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := &Msg{Op: OpReadResp, Data: make([]byte, CacheLine)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Marshal(buf[:0])
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	enc := (&Msg{Op: OpReadResp, Data: make([]byte, CacheLine)}).Marshal(nil)
	var m Msg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReassemblerRefusesWhatItCannotHold: the first fragment sizes the
// region from a 64-bit wire field, so the bound and the overflow check
// come before any allocation.
func TestReassemblerRefusesWhatItCannotHold(t *testing.T) {
	for name, m := range map[string]Msg{
		"total 1<<62":      {Op: OpObjectPush, TotalLen: 1 << 62, Data: []byte("x")},
		"total above cap":  {Op: OpObjectPush, TotalLen: MaxTransferLen + 1},
		"offset+len wraps": {Op: OpObjectPush, TotalLen: 64, FragOffset: ^uint64(0) - 3, Data: []byte("12345678")},
		"beyond own total": {Op: OpObjectPush, TotalLen: 4, Data: []byte("12345678")},
	} {
		var r Reassembler
		if done, err := r.Add(&m); err == nil || done {
			t.Errorf("%s: done=%v err=%v, want a refusal", name, done, err)
		}
		if r.Started() || r.Bytes() != nil {
			t.Errorf("%s: a refused first fragment started the transfer", name)
		}
	}
	var r Reassembler
	if _, err := r.Add(&Msg{Op: OpObjectPush, TotalLen: 64, Data: make([]byte, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(&Msg{Op: OpObjectPush, TotalLen: 64, FragOffset: ^uint64(0) - 3, Data: make([]byte, 8)}); err == nil {
		t.Fatal("a later fragment's offset+len wrapped past the total check")
	}
}

// TestInOrderReassemblyAllocatesOnlyTheRegion pins the bulk path's
// receive side: fragments in wire order extend the covered prefix in
// place, so the region is the one allocation however many there are.
func TestInOrderReassemblyAllocatesOnlyTheRegion(t *testing.T) {
	for _, maxData := range []int{0, 1400} { // the simulator's fragments, and a real MTU's
		frags := Fragment(make([]byte, 64<<10), 1, maxData)
		allocs := testing.AllocsPerRun(50, func() {
			var r Reassembler
			for i := range frags {
				if _, err := r.Add(&frags[i]); err != nil {
					t.Fatal(err)
				}
			}
			if r.Prefix() != 64<<10 {
				t.Fatalf("prefix = %d", r.Prefix())
			}
		})
		if allocs != 1 {
			t.Errorf("%d in-order fragments: %v allocs per reassembly, want 1", len(frags), allocs)
		}
	}
}

func TestNextFragmentWalksWhatFragmentCollects(t *testing.T) {
	raw := make([]byte, 5000)
	for i := range raw {
		raw[i] = byte(i)
	}
	for _, maxData := range []int{0, 1, 512, 4999, 5000, 5001} {
		frags := Fragment(raw, 3, maxData)
		for i, off := 0, 0; ; i++ {
			var m Msg
			m, off = NextFragment(raw, 3, maxData, off)
			if i >= len(frags) || m.FragOffset != frags[i].FragOffset || !bytes.Equal(m.Data, frags[i].Data) ||
				m.TotalLen != 5000 || m.Version != 3 || m.Op != OpObjectPush {
				t.Fatalf("maxData %d: fragment %d = %+v", maxData, i, m)
			}
			if off >= len(raw) {
				if i != len(frags)-1 {
					t.Fatalf("maxData %d: walk ended after %d of %d fragments", maxData, i+1, len(frags))
				}
				break
			}
		}
	}
	if m, off := NextFragment(nil, 7, 0, 0); off != 0 || m.TotalLen != 0 || len(m.Data) != 0 || m.Version != 7 {
		t.Fatalf("empty transfer: %+v, next %d", m, off)
	}
}

// sink keeps the benchmarks' results alive.
var sink []byte

// BenchmarkReassemble64K is the bulk path's receive side: a 64 KiB
// object in the simulator's two fragments, one allocation (gated, also
// at -benchtime=1x). BenchmarkFreshCopy64K is its yardstick, a copy of
// the same bytes into fresh memory.
func BenchmarkReassemble64K(b *testing.B) {
	frags := Fragment(make([]byte, 64<<10), 1, 0)
	once := func() {
		var r Reassembler
		for j := range frags {
			if _, err := r.Add(&frags[j]); err != nil {
				b.Fatal(err)
			}
		}
		sink = r.Bytes()
	}
	if n := testing.AllocsPerRun(20, once); n != 1 {
		b.Fatalf("reassembling 64 KiB allocates %v times, want 1", n)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		once()
	}
}

func BenchmarkFreshCopy64K(b *testing.B) {
	src := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = append([]byte(nil), src...)
	}
}
