package object

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/oid"
)

var gen = oid.NewSeededGenerator(99)

func newTestObject(t *testing.T, size int) *Object {
	t.Helper()
	o, err := New(gen.New(), size, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	if _, err := New(oid.Nil, 4096, 0); err == nil {
		t.Fatal("New accepted nil ID")
	}
	if _, err := New(gen.New(), 10, 0); err == nil {
		t.Fatal("New accepted size smaller than header+FOT")
	}
	if _, err := New(gen.New(), HeaderSize+FOTEntrySize*4, 4); err != nil {
		t.Fatalf("minimal object rejected: %v", err)
	}
	if _, err := New(gen.New(), 4096, MaxFOTIndex+1); err == nil {
		t.Fatal("New accepted FOT capacity beyond index width")
	}
}

func TestPtrEncoding(t *testing.T) {
	p := MustPtr(0x1234, 0x5678_9ABC_DEF0)
	if p.FOT() != 0x1234 {
		t.Fatalf("FOT() = %#x", p.FOT())
	}
	if p.Offset() != 0x5678_9ABC_DEF0 {
		t.Fatalf("Offset() = %#x", p.Offset())
	}
	if _, err := MakePtr(1, MaxOffset+1); err == nil {
		t.Fatal("MakePtr accepted 49-bit offset")
	}
	if !Ptr(0).IsNull() {
		t.Fatal("zero Ptr not null")
	}
	if MustPtr(0, 8).IsNull() {
		t.Fatal("non-zero Ptr reported null")
	}
}

func TestPropertyPtrRoundTrip(t *testing.T) {
	f := func(fot uint16, off uint64) bool {
		off &= MaxOffset
		p := MustPtr(fot, off)
		return p.FOT() == fot && p.Offset() == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBasics(t *testing.T) {
	o := newTestObject(t, 8192)
	base := o.HeapBase()
	off1, err := o.Alloc(100, 0)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if off1 != base {
		t.Fatalf("first alloc at %#x, want heap base %#x", off1, base)
	}
	off2, err := o.Alloc(8, 8)
	if err != nil {
		t.Fatalf("Alloc aligned: %v", err)
	}
	if off2%8 != 0 {
		t.Fatalf("aligned alloc at %#x not 8-aligned", off2)
	}
	if off2 < off1+100 {
		t.Fatalf("allocations overlap: %#x after [%#x,+100)", off2, off1)
	}
}

func TestAllocExhaustion(t *testing.T) {
	o := newTestObject(t, HeaderSize+FOTEntrySize*DefaultFOTCap+64)
	if _, err := o.Alloc(64, 0); err != nil {
		t.Fatalf("Alloc within budget: %v", err)
	}
	if _, err := o.Alloc(1, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Alloc beyond budget: err = %v, want ErrNoSpace", err)
	}
	if free := o.Size() - int(o.AllocCursor()); free != 0 {
		t.Fatalf("%d bytes free, want 0", free)
	}
}

func TestAllocBadAlignment(t *testing.T) {
	o := newTestObject(t, 4096)
	if _, err := o.Alloc(8, 3); err == nil {
		t.Fatal("Alloc accepted non-power-of-two alignment")
	}
	if _, err := o.Alloc(-1, 0); err == nil {
		t.Fatal("Alloc accepted negative size")
	}
}

func TestReadWrite(t *testing.T) {
	o := newTestObject(t, 4096)
	off, _ := o.Alloc(16, 8)
	want := []byte("hello, twizzler!")
	if err := o.WriteAt(off, want); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got, err := o.ReadAt(off, len(want))
	if err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadAt = %q, want %q", got, want)
	}
	if _, err := o.ReadAt(uint64(o.Size())-4, 8); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := o.WriteAt(uint64(o.Size()), []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range write: %v", err)
	}
}

func TestScalarAccessors(t *testing.T) {
	o := newTestObject(t, 4096)
	off, _ := o.Alloc(32, 8)
	if err := o.PutUint64(off, 0xDEAD_BEEF_CAFE_F00D); err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Uint64(off); v != 0xDEAD_BEEF_CAFE_F00D {
		t.Fatalf("Uint64 = %#x", v)
	}
	if err := o.PutUint32(off+8, 0x1234_5678); err != nil {
		t.Fatal(err)
	}
	if b, _ := o.ReadAt(off+8, 4); binary.LittleEndian.Uint32(b) != 0x1234_5678 {
		t.Fatalf("PutUint32 wrote % x", b)
	}
	if err := o.PutUint32(uint64(o.Size())-2, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("PutUint32 past the end: %v", err)
	}
}

func TestFOT(t *testing.T) {
	o := newTestObject(t, 8192)
	a, b := gen.New(), gen.New()
	i1, err := o.AddFOT(a, FlagRead)
	if err != nil {
		t.Fatalf("AddFOT: %v", err)
	}
	if i1 != 1 {
		t.Fatalf("first FOT index = %d, want 1", i1)
	}
	i2, _ := o.AddFOT(b, FlagRead|FlagWrite)
	if i2 != 2 {
		t.Fatalf("second FOT index = %d, want 2", i2)
	}
	// Dedup.
	again, _ := o.AddFOT(a, FlagRead)
	if again != i1 {
		t.Fatalf("duplicate AddFOT = %d, want %d", again, i1)
	}
	// Same target, different flags: new entry.
	i3, _ := o.AddFOT(a, FlagWrite)
	if i3 == i1 {
		t.Fatal("different flags deduplicated")
	}
	id, fl, err := o.FOTEntry(i2)
	if err != nil || id != b || fl != FlagRead|FlagWrite {
		t.Fatalf("FOTEntry(%d) = %v,%v,%v", i2, id, fl, err)
	}
	if _, _, err := o.FOTEntry(0); !errors.Is(err, ErrBadFOT) {
		t.Fatalf("FOTEntry(0): %v", err)
	}
	if _, _, err := o.FOTEntry(100); !errors.Is(err, ErrBadFOT) {
		t.Fatalf("FOTEntry(100): %v", err)
	}
	if _, err := o.AddFOT(oid.Nil, 0); !errors.Is(err, ErrBadFOT) {
		t.Fatalf("AddFOT(nil): %v", err)
	}
}

func TestFOTFull(t *testing.T) {
	o, err := New(gen.New(), HeaderSize+FOTEntrySize*2+64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddFOT(gen.New(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddFOT(gen.New(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddFOT(gen.New(), 0); !errors.Is(err, ErrFOTFull) {
		t.Fatalf("third entry in 2-cap FOT: %v", err)
	}
}

func TestStoreLoadRef(t *testing.T) {
	o := newTestObject(t, 8192)
	target := gen.New()
	slot, _ := o.Alloc(8, 8)
	if err := o.StoreRef(slot, target, 0x100, FlagRead); err != nil {
		t.Fatalf("StoreRef: %v", err)
	}
	g, err := o.LoadRef(slot)
	if err != nil {
		t.Fatalf("LoadRef: %v", err)
	}
	if g.Obj != target || g.Off != 0x100 {
		t.Fatalf("LoadRef = %v", g)
	}
	// Intra-object reference uses FOT index 0 and resolves to self.
	slot2, _ := o.Alloc(8, 8)
	if err := o.StoreRef(slot2, o.ID(), 0x40, 0); err != nil {
		t.Fatalf("StoreRef self: %v", err)
	}
	p, _ := o.GetPtr(slot2)
	if p.FOT() != 0 {
		t.Fatalf("self ref FOT index = %d, want 0", p.FOT())
	}
	g2, _ := o.LoadRef(slot2)
	if g2.Obj != o.ID() || g2.Off != 0x40 {
		t.Fatalf("self LoadRef = %v", g2)
	}
}

func TestResolveNullPtr(t *testing.T) {
	o := newTestObject(t, 4096)
	g, err := o.ResolvePtr(0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsNil() {
		t.Fatalf("null ptr resolved to %v", g)
	}
}

func TestReachable(t *testing.T) {
	o := newTestObject(t, 8192)
	a, b := gen.New(), gen.New()
	o.AddFOT(a, FlagRead)
	o.AddFOT(b, FlagRead)
	o.AddFOT(a, FlagWrite) // same target again under other flags
	r := o.Reachable()
	if len(r) != 2 {
		t.Fatalf("Reachable() = %d ids, want 2 (deduped)", len(r))
	}
	found := map[oid.ID]bool{}
	for _, id := range r {
		found[id] = true
	}
	if !found[a] || !found[b] {
		t.Fatalf("Reachable missing targets: %v", r)
	}
}

func TestByteCopyInvariance(t *testing.T) {
	// The core §3.1 claim: an object containing pointers survives a
	// byte-level copy with references intact.
	o := newTestObject(t, 8192)
	target := gen.New()
	slot, _ := o.Alloc(8, 8)
	o.StoreRef(slot, target, 0x2000, FlagRead)
	strOff, _ := o.AllocString("payload survives memcpy")

	moved, err := FromBytes(o.ID(), o.CloneBytes())
	if err != nil {
		t.Fatalf("FromBytes after byte copy: %v", err)
	}
	g, err := moved.LoadRef(slot)
	if err != nil || g.Obj != target || g.Off != 0x2000 {
		t.Fatalf("reference after copy = %v, %v", g, err)
	}
	s, err := moved.LoadString(strOff)
	if err != nil || s != "payload survives memcpy" {
		t.Fatalf("string after copy = %q, %v", s, err)
	}
	if moved.Checksum() != o.Checksum() {
		t.Fatal("checksum changed across byte copy")
	}
}

func TestFromBytesValidation(t *testing.T) {
	o := newTestObject(t, 4096)
	good := o.CloneBytes()

	if _, err := FromBytes(oid.Nil, good); err == nil {
		t.Error("FromBytes accepted nil ID")
	}
	if _, err := FromBytes(gen.New(), good[:10]); err == nil {
		t.Error("FromBytes accepted truncated buffer")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if _, err := FromBytes(gen.New(), bad); err == nil {
		t.Error("FromBytes accepted bad magic")
	}
	bad2 := append([]byte(nil), good...)
	bad2[4] = 99 // version
	if _, err := FromBytes(gen.New(), bad2); err == nil {
		t.Error("FromBytes accepted bad version")
	}
	bad3 := append([]byte(nil), good...)
	bad3 = append(bad3, 0) // size mismatch
	if _, err := FromBytes(gen.New(), bad3); err == nil {
		t.Error("FromBytes accepted size mismatch")
	}
	bad4 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad4[28:32], uint32(len(good))) // FOT capacity
	if _, err := FromBytes(gen.New(), bad4); !errors.Is(err, ErrBadObject) {
		t.Errorf("FromBytes with a FOT past the object: %v, want ErrBadObject", err)
	}
	bad5 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad5[24:28], binary.LittleEndian.Uint32(good[28:32])+1) // FOT length
	if _, err := FromBytes(gen.New(), bad5); !errors.Is(err, ErrBadObject) {
		t.Errorf("FromBytes with a FOT length past its capacity: %v, want ErrBadObject", err)
	}
	// Validate makes the same checks without building the object.
	for _, b := range [][]byte{good[:10], bad, bad2, bad3, bad4, bad5} {
		if err := Validate(gen.New(), b); !errors.Is(err, ErrBadObject) {
			t.Errorf("Validate: %v, want ErrBadObject", err)
		}
	}
	if err := Validate(o.ID(), good); err != nil {
		t.Errorf("Validate of a good image: %v", err)
	}
}

func TestClone(t *testing.T) {
	o := newTestObject(t, 4096)
	off, _ := o.AllocString("original")
	nid := gen.New()
	c, err := FromBytes(nid, o.CloneBytes())
	if err != nil {
		t.Fatalf("FromBytes(CloneBytes): %v", err)
	}
	if c.ID() != nid {
		t.Fatalf("clone ID = %v", c.ID())
	}
	// Mutating the clone must not touch the original.
	c.WriteAt(off+8, []byte("CLOBBER!"))
	s, _ := o.LoadString(off)
	if s != "original" {
		t.Fatalf("original mutated through clone: %q", s)
	}
}

func TestAllocBytesRoundTrip(t *testing.T) {
	o := newTestObject(t, 8192)
	payload := []byte{0, 1, 2, 3, 4, 255}
	off, err := o.AllocBytes(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.LoadBytes(off)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("LoadBytes = %v", got)
	}
	// Empty payload.
	off2, err := o.AllocBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := o.LoadBytes(off2)
	if err != nil || len(got2) != 0 {
		t.Fatalf("empty LoadBytes = %v, %v", got2, err)
	}
}

func TestPropertyAllocNoOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		o, err := New(gen.New(), 1<<20, 8)
		if err != nil {
			return false
		}
		type span struct{ off, n uint64 }
		var spans []span
		for _, s := range sizes {
			n := uint64(s%512) + 1
			off, err := o.Alloc(int(n), 8)
			if err != nil {
				break // exhaustion is fine
			}
			for _, sp := range spans {
				if off < sp.off+sp.n && sp.off < off+n {
					return false // overlap
				}
			}
			if off < o.HeapBase() || off+n > uint64(o.Size()) {
				return false
			}
			spans = append(spans, span{off, n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStoreRefResolves(t *testing.T) {
	f := func(off uint64, hi, lo uint64) bool {
		if hi == 0 && lo == 0 {
			return true
		}
		o, err := New(gen.New(), 1<<16, 8)
		if err != nil {
			return false
		}
		slot, err := o.Alloc(8, 8)
		if err != nil {
			return false
		}
		target := oid.ID{Hi: hi, Lo: lo}
		off &= MaxOffset
		if err := o.StoreRef(slot, target, off, FlagRead); err != nil {
			return false
		}
		g, err := o.LoadRef(slot)
		return err == nil && g.Obj == target && g.Off == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkByteCopyLoad(b *testing.B) {
	o, _ := New(gen.New(), 1<<20, 64)
	raw := o.CloneBytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := make([]byte, len(raw))
		copy(buf, raw)
		if _, err := FromBytes(o.ID(), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloneBytes is the byte copy that moves an object through
// core.MoveObject and Clone: 64 KiB into fresh memory, which
// makeslicecopy does not zero first.
func BenchmarkCloneBytes(b *testing.B) {
	o, _ := New(gen.New(), 64<<10, 64)
	b.SetBytes(int64(o.Size()))
	b.ReportAllocs()
	var c []byte
	for i := 0; i < b.N; i++ {
		c = o.CloneBytes()
	}
	if !bytes.Equal(c, o.Bytes()) {
		b.Fatal("clone differs from its source")
	}
}

func BenchmarkStoreRef(b *testing.B) {
	o, _ := New(gen.New(), 1<<20, 1024)
	target := gen.New()
	slot, _ := o.Alloc(8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := o.StoreRef(slot, target, 64, FlagRead); err != nil {
			b.Fatal(err)
		}
	}
}
