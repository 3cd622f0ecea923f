package dataplane

import (
	"testing"

	"repro/internal/wire"
)

func ringFrame(t *testing.T, dst wire.StationID, seq uint64) (*Buf, []byte) {
	t.Helper()
	h := wire.Header{Type: wire.MsgMem, Src: 1, Dst: dst, Seq: seq}
	buf, err := EncodeFrame(&h, nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf, buf.Bytes()
}

// TestRingPushPopFIFO pins the bare ring: pushes come back in order,
// Len tracks occupancy, and the consumer owns the popped reference.
func TestRingPushPopFIFO(t *testing.T) {
	base := LiveBufs()
	r := NewRing(4)
	var bufs []*Buf
	for i := uint64(0); i < 4; i++ {
		buf, fr := ringFrame(t, 2, i)
		bufs = append(bufs, buf)
		if !r.Push(fr, buf) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	for i := uint64(0); i < 4; i++ {
		fr, buf, ok := r.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		var h wire.Header
		if err := h.DecodeFrom(fr); err != nil || h.Seq != i {
			t.Fatalf("pop %d: seq %d err %v", i, h.Seq, err)
		}
		if buf != bufs[i] {
			t.Fatalf("pop %d returned a different buffer", i)
		}
		buf.Release()
	}
	if _, _, ok := r.Pop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
	if live := LiveBufs(); live != base {
		t.Fatalf("LiveBufs = %d after drain, baseline %d", live, base)
	}
}

// TestRingFullPushReleasesNothing pins the full-ring contract: a
// failed Push does NOT take ownership — the producer must count the
// drop and release, exactly like a lossy link. This test walks both
// halves of the contract and asserts buffer balance at the end.
func TestRingFullPushReleasesNothing(t *testing.T) {
	base := LiveBufs()
	r := NewRing(2)
	b1, f1 := ringFrame(t, 2, 1)
	b2, f2 := ringFrame(t, 2, 2)
	b3, f3 := ringFrame(t, 2, 3)
	if !r.Push(f1, b1) || !r.Push(f2, b2) {
		t.Fatal("push below capacity failed")
	}
	if r.Push(f3, b3) {
		t.Fatal("push succeeded on a full ring")
	}
	if b3.Refs() != 1 {
		t.Fatalf("failed push changed refcount to %d", b3.Refs())
	}
	b3.Release() // the producer's drop path
	for {
		_, buf, ok := r.Pop()
		if !ok {
			break
		}
		buf.Release()
	}
	if live := LiveBufs(); live != base {
		t.Fatalf("LiveBufs = %d after full-ring drop cycle, baseline %d", live, base)
	}
}
