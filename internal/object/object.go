// Package object implements the Twizzler-style object model the paper
// builds on (§3.1): an object is a flat region of memory identified by a
// 128-bit ID, acting as a pool where smaller data structures are placed.
//
// Cross-object references are encoded as 64-bit pointers that survive
// movement between hosts unchanged ("invariant pointers"): the pointer
// holds a 16-bit index into the object's Foreign Object Table (FOT) —
// a table at a known location inside the object listing the 128-bit IDs
// of every external object referenced — plus a 48-bit offset into the
// target. FOT index 0 is reserved for intra-object references.
//
// Because nothing in an object depends on the host it lives on, moving
// an object is a byte-level copy (§3.1 "Serialization"), and the FOT is
// a translucent reachability graph the system can use for prefetching.
package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/oid"
)

// Layout constants. All multi-byte fields are little-endian.
const (
	// Magic identifies a well-formed object header ("TWZO").
	Magic = 0x4F5A5754

	// LayoutVersion is the current header layout version.
	LayoutVersion = 1

	// HeaderSize is the fixed header at offset 0 of every object:
	//   [0:4)   magic
	//   [4:8)   layout version
	//   [8:16)  object size in bytes
	//   [16:24) allocation cursor (next free heap offset)
	//   [24:28) FOT length (entries used)
	//   [28:32) FOT capacity (entries)
	HeaderSize = 32

	// FOTEntrySize is the size of one Foreign Object Table entry:
	// 16-byte target ID followed by 8 bytes of flags.
	FOTEntrySize = 24

	// DefaultFOTCap is the FOT capacity used when the caller passes 0.
	DefaultFOTCap = 64

	// MaxFOTIndex is the largest usable FOT index (index 0 is the
	// reserved intra-object entry).
	MaxFOTIndex = 1<<16 - 1

	// MaxOffset is the largest encodable pointer offset (48 bits).
	MaxOffset = 1<<48 - 1
)

// Errors returned by object operations.
var (
	ErrBadObject  = errors.New("object: malformed object")
	ErrOutOfRange = errors.New("object: offset out of range")
	ErrNoSpace    = errors.New("object: allocation exceeds object size")
	ErrFOTFull    = errors.New("object: foreign object table full")
	ErrBadFOT     = errors.New("object: invalid FOT index")
	ErrBadPtr     = errors.New("object: invalid pointer")
)

// FOTFlags annotate a foreign-object reference.
type FOTFlags uint64

const (
	// FlagRead marks the reference as readable.
	FlagRead FOTFlags = 1 << iota
	// FlagWrite marks the reference as writable.
	FlagWrite
	// FlagExec marks the target as a code object (code mobility, §5).
	FlagExec
)

// Ptr is a 64-bit invariant pointer: the high 16 bits index the FOT of
// the containing object (0 = intra-object), the low 48 bits are a byte
// offset into the target object. The zero Ptr is the null pointer.
type Ptr uint64

// MakePtr builds a pointer from a FOT index and an offset.
func MakePtr(fot uint16, off uint64) (Ptr, error) {
	if off > MaxOffset {
		return 0, fmt.Errorf("%w: offset %#x exceeds 48 bits", ErrBadPtr, off)
	}
	return Ptr(uint64(fot)<<48 | off), nil
}

// MustPtr is MakePtr for statically valid inputs; it panics on error.
func MustPtr(fot uint16, off uint64) Ptr {
	p, err := MakePtr(fot, off)
	if err != nil {
		panic(err)
	}
	return p
}

// FOT returns the pointer's FOT index.
func (p Ptr) FOT() uint16 { return uint16(uint64(p) >> 48) }

// Offset returns the pointer's 48-bit offset.
func (p Ptr) Offset() uint64 { return uint64(p) & MaxOffset }

// IsNull reports whether p is the null pointer.
func (p Ptr) IsNull() bool { return p == 0 }

// String formats the pointer as "fot:offset".
func (p Ptr) String() string {
	return fmt.Sprintf("%d:%#x", p.FOT(), p.Offset())
}

// Global is a fully resolved reference: an object ID plus an offset.
// This is the form references take when they cross the OS/network
// boundary (the "common language for data and code references", §1).
type Global struct {
	Obj oid.ID
	Off uint64
}

// IsNil reports whether the reference points at no object.
func (g Global) IsNil() bool { return g.Obj.IsNil() }

// String formats the global reference.
func (g Global) String() string {
	return fmt.Sprintf("%s+%#x", g.Obj.Short(), g.Off)
}

// Object is a flat region of memory in the global address space. It is
// not safe for concurrent mutation; the per-host store serializes
// access.
type Object struct {
	id   oid.ID
	data []byte
}

// New creates an empty object of the given total size with a FOT of
// fotCap entries (DefaultFOTCap if 0). Size must cover the header and
// FOT.
func New(id oid.ID, size int, fotCap int) (*Object, error) {
	if id.IsNil() {
		return nil, fmt.Errorf("%w: nil ID", ErrBadObject)
	}
	if fotCap <= 0 {
		fotCap = DefaultFOTCap
	}
	if fotCap > MaxFOTIndex {
		return nil, fmt.Errorf("%w: FOT capacity %d exceeds %d", ErrBadObject, fotCap, MaxFOTIndex)
	}
	heapBase := HeaderSize + FOTEntrySize*fotCap
	if size < heapBase {
		return nil, fmt.Errorf("%w: size %d below minimum %d for %d FOT entries",
			ErrBadObject, size, heapBase, fotCap)
	}
	if uint64(size) > MaxOffset {
		return nil, fmt.Errorf("%w: size %d exceeds max offset", ErrBadObject, size)
	}
	o := &Object{id: id, data: make([]byte, size)}
	binary.LittleEndian.PutUint32(o.data[0:4], Magic)
	binary.LittleEndian.PutUint32(o.data[4:8], LayoutVersion)
	binary.LittleEndian.PutUint64(o.data[8:16], uint64(size))
	binary.LittleEndian.PutUint64(o.data[16:24], uint64(heapBase))
	binary.LittleEndian.PutUint32(o.data[24:28], 0)
	binary.LittleEndian.PutUint32(o.data[28:32], uint32(fotCap))
	return o, nil
}

// FromBytes adopts raw bytes as an object after validating the header.
// This is the byte-copy load path: no allocation walk, no pointer
// fixup — the buffer is used as-is.
func FromBytes(id oid.ID, data []byte) (*Object, error) {
	if err := Validate(id, data); err != nil {
		return nil, err
	}
	return &Object{id: id, data: data}, nil
}

// Validate makes FromBytes's checks of data as the object id without
// building anything: nil when FromBytes would adopt it, else the
// ErrBadObject it would return.
func Validate(id oid.ID, data []byte) error {
	if id.IsNil() {
		return fmt.Errorf("%w: nil ID", ErrBadObject)
	}
	if len(data) < HeaderSize {
		return fmt.Errorf("%w: %d bytes is smaller than header", ErrBadObject, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:4]) != Magic {
		return fmt.Errorf("%w: bad magic", ErrBadObject)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != LayoutVersion {
		return fmt.Errorf("%w: unsupported layout version %d", ErrBadObject, v)
	}
	if sz := binary.LittleEndian.Uint64(data[8:16]); sz != uint64(len(data)) {
		return fmt.Errorf("%w: header size %d != buffer size %d", ErrBadObject, sz, len(data))
	}
	fotCap := int(binary.LittleEndian.Uint32(data[28:32]))
	if HeaderSize+FOTEntrySize*fotCap > len(data) {
		return fmt.Errorf("%w: FOT capacity %d overflows object", ErrBadObject, fotCap)
	}
	if int(binary.LittleEndian.Uint32(data[24:28])) > fotCap {
		return fmt.Errorf("%w: FOT length exceeds capacity", ErrBadObject)
	}
	return nil
}

// ID returns the object's identifier.
func (o *Object) ID() oid.ID { return o.id }

// Size returns the object's total size in bytes.
func (o *Object) Size() int { return len(o.data) }

// Bytes returns the object's raw backing bytes. The slice aliases the
// object; callers that transmit it must copy (see CloneBytes).
func (o *Object) Bytes() []byte { return o.data }

// CloneBytes returns a copy of the raw bytes — the byte-level copy that
// moves an object between hosts.
func (o *Object) CloneBytes() []byte {
	// From a plain local, make+copy compiles to makeslicecopy, which
	// does not zero the bytes it is about to overwrite.
	src := o.data
	c := make([]byte, len(src))
	copy(c, src)
	return c
}

func (o *Object) fotCap() uint32 { return binary.LittleEndian.Uint32(o.data[28:32]) }
func (o *Object) fotLen() uint32 { return binary.LittleEndian.Uint32(o.data[24:28]) }

// HeapBase returns the first offset usable for data.
func (o *Object) HeapBase() uint64 {
	return uint64(HeaderSize + FOTEntrySize*int(o.fotCap()))
}

// AllocCursor returns the next free heap offset.
func (o *Object) AllocCursor() uint64 {
	return binary.LittleEndian.Uint64(o.data[16:24])
}

// Alloc reserves n bytes in the object's heap aligned to align (a power
// of two; 0 or 1 for no alignment) and returns the offset.
func (o *Object) Alloc(n int, align int) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("%w: negative size", ErrNoSpace)
	}
	cur := o.AllocCursor()
	if align > 1 {
		a := uint64(align)
		if a&(a-1) != 0 {
			return 0, fmt.Errorf("object: alignment %d is not a power of two", align)
		}
		cur = (cur + a - 1) &^ (a - 1)
	}
	if cur+uint64(n) > uint64(len(o.data)) {
		return 0, fmt.Errorf("%w: need %d at %#x, object size %d", ErrNoSpace, n, cur, len(o.data))
	}
	binary.LittleEndian.PutUint64(o.data[16:24], cur+uint64(n))
	return cur, nil
}

func (o *Object) check(off uint64, n int) error {
	if n < 0 || off > uint64(len(o.data)) || off+uint64(n) > uint64(len(o.data)) {
		return fmt.Errorf("%w: [%#x,+%d) in object of %d bytes", ErrOutOfRange, off, n, len(o.data))
	}
	return nil
}

// ReadAt returns a view of n bytes at off. The view aliases the object.
func (o *Object) ReadAt(off uint64, n int) ([]byte, error) {
	if err := o.check(off, n); err != nil {
		return nil, err
	}
	return o.data[off : off+uint64(n)], nil
}

// WriteAt copies b into the object at off.
func (o *Object) WriteAt(off uint64, b []byte) error {
	if err := o.check(off, len(b)); err != nil {
		return err
	}
	copy(o.data[off:], b)
	return nil
}

// Uint64 reads a little-endian uint64 at off.
func (o *Object) Uint64(off uint64) (uint64, error) {
	if err := o.check(off, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(o.data[off:]), nil
}

// PutUint64 writes a little-endian uint64 at off.
func (o *Object) PutUint64(off uint64, v uint64) error {
	if err := o.check(off, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(o.data[off:], v)
	return nil
}

// PutUint32 writes a little-endian uint32 at off.
func (o *Object) PutUint32(off uint64, v uint32) error {
	if err := o.check(off, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(o.data[off:], v)
	return nil
}

// AddFOT registers a foreign object in the FOT and returns its index
// (>= 1). Identical (target, flags) entries are deduplicated.
func (o *Object) AddFOT(target oid.ID, flags FOTFlags) (uint16, error) {
	if target.IsNil() {
		return 0, fmt.Errorf("%w: nil target", ErrBadFOT)
	}
	n := o.fotLen()
	for i := uint32(0); i < n; i++ {
		id, fl, _ := o.FOTEntry(uint16(i + 1))
		if id == target && fl == flags {
			return uint16(i + 1), nil
		}
	}
	if n >= o.fotCap() {
		return 0, fmt.Errorf("%w: capacity %d", ErrFOTFull, o.fotCap())
	}
	base := HeaderSize + FOTEntrySize*int(n)
	target.PutBytes(o.data[base : base+oid.Size])
	binary.LittleEndian.PutUint64(o.data[base+oid.Size:base+FOTEntrySize], uint64(flags))
	binary.LittleEndian.PutUint32(o.data[24:28], n+1)
	return uint16(n + 1), nil
}

// FOTEntry returns the target and flags of FOT index idx (1-based).
func (o *Object) FOTEntry(idx uint16) (oid.ID, FOTFlags, error) {
	if idx == 0 || uint32(idx) > o.fotLen() {
		return oid.Nil, 0, fmt.Errorf("%w: index %d of %d", ErrBadFOT, idx, o.fotLen())
	}
	base := HeaderSize + FOTEntrySize*(int(idx)-1)
	id, err := oid.FromBytes(o.data[base : base+oid.Size])
	if err != nil {
		return oid.Nil, 0, err
	}
	flags := FOTFlags(binary.LittleEndian.Uint64(o.data[base+oid.Size : base+FOTEntrySize]))
	return id, flags, nil
}

// PutPtr writes pointer p at offset off.
func (o *Object) PutPtr(off uint64, p Ptr) error {
	return o.PutUint64(off, uint64(p))
}

// GetPtr reads a pointer at offset off.
func (o *Object) GetPtr(off uint64) (Ptr, error) {
	u, err := o.Uint64(off)
	return Ptr(u), err
}

// ResolvePtr turns an encoded pointer into a Global reference,
// resolving FOT index 0 to this object.
func (o *Object) ResolvePtr(p Ptr) (Global, error) {
	if p.IsNull() {
		return Global{}, nil
	}
	if p.FOT() == 0 {
		return Global{Obj: o.id, Off: p.Offset()}, nil
	}
	target, _, err := o.FOTEntry(p.FOT())
	if err != nil {
		return Global{}, err
	}
	return Global{Obj: target, Off: p.Offset()}, nil
}

// StoreRef writes a reference to (target, targetOff) at offset off,
// creating a FOT entry as needed. Intra-object references use index 0.
func (o *Object) StoreRef(off uint64, target oid.ID, targetOff uint64, flags FOTFlags) error {
	var idx uint16
	if target != o.id {
		var err error
		idx, err = o.AddFOT(target, flags)
		if err != nil {
			return err
		}
	}
	p, err := MakePtr(idx, targetOff)
	if err != nil {
		return err
	}
	return o.PutPtr(off, p)
}

// LoadRef reads the pointer at off and resolves it to a Global.
func (o *Object) LoadRef(off uint64) (Global, error) {
	p, err := o.GetPtr(off)
	if err != nil {
		return Global{}, err
	}
	return o.ResolvePtr(p)
}

// Reachable returns the IDs of every foreign object referenced by this
// object's FOT — the reachability graph edge set used for
// identity-based prefetching (§3.1).
func (o *Object) Reachable() []oid.ID {
	n := int(o.fotLen())
	out := make([]oid.ID, 0, n)
	seen := make(map[oid.ID]struct{}, n)
	for i := 1; i <= n; i++ {
		id, _, err := o.FOTEntry(uint16(i))
		if err != nil {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// Checksum returns a 64-bit FNV-1a checksum of the object's bytes,
// used by tests and the coherence layer to detect divergence.
func (o *Object) Checksum() uint64 {
	h := fnv.New64a()
	h.Write(o.data)
	return h.Sum64()
}

// AllocBytes allocates space for b (length-prefixed, 8-byte aligned)
// and copies it in, returning the offset of the length prefix. Read it
// back with LoadBytes.
func (o *Object) AllocBytes(b []byte) (uint64, error) {
	off, err := o.Alloc(8+len(b), 8)
	if err != nil {
		return 0, err
	}
	if err := o.PutUint64(off, uint64(len(b))); err != nil {
		return 0, err
	}
	if err := o.WriteAt(off+8, b); err != nil {
		return 0, err
	}
	return off, nil
}

// LoadBytes reads a length-prefixed byte slice written by AllocBytes.
// The returned slice aliases the object.
func (o *Object) LoadBytes(off uint64) ([]byte, error) {
	n, err := o.Uint64(off)
	if err != nil {
		return nil, err
	}
	return o.ReadAt(off+8, int(n))
}

// AllocString stores s via AllocBytes.
func (o *Object) AllocString(s string) (uint64, error) {
	return o.AllocBytes([]byte(s))
}

// LoadString reads a string written by AllocString.
func (o *Object) LoadString(off uint64) (string, error) {
	b, err := o.LoadBytes(off)
	return string(b), err
}
