package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/object"
	"repro/internal/oid"
)

// Snapshot support: because objects are invariant byte regions
// (pointers encode FOT index + offset, never host addresses), a store
// persists as a plain concatenation of object images and loads back
// with zero fixup — the "orthogonal persistence" Twizzler gets from
// the same property the paper exploits for movement (§3.1).
//
// Container format (little-endian):
//
//	magic   u32 "TWZS"
//	version u32 (1)
//	count   u64
//	repeated count times:
//	  id      16 bytes
//	  version u64
//	  flags   u8 (bit 0: home)
//	  size    u64
//	  bytes   [size]
const (
	snapMagic   = 0x535A5754
	snapVersion = 1
)

// ErrBadSnapshot reports a malformed snapshot stream.
var ErrBadSnapshot = errors.New("store: malformed snapshot")

// SaveTo writes every held object to w. Home and version metadata
// is preserved; LRU order is not (it is an access-time artifact).
func (s *Store) SaveTo(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(s.objects)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for id, e := range s.objects {
		var rec [33]byte
		id.PutBytes(rec[0:16])
		binary.LittleEndian.PutUint64(rec[16:24], e.Version)
		if e.Home {
			rec[24] = 1
		}
		binary.LittleEndian.PutUint64(rec[25:33], uint64(e.Obj.Size()))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if _, err := bw.Write(e.Obj.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadFrom reads a snapshot written by SaveTo into the store
// (replacing same-ID entries, byte-copy load — no pointer fixup).
// It returns the number of objects loaded.
func (s *Store) LoadFrom(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != snapMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != snapVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if count > 1<<32 {
		return 0, fmt.Errorf("%w: absurd object count %d", ErrBadSnapshot, count)
	}
	loaded := 0
	for i := uint64(0); i < count; i++ {
		var rec [33]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return loaded, fmt.Errorf("%w: record %d: %v", ErrBadSnapshot, i, err)
		}
		id, err := oid.FromBytes(rec[0:16])
		if err != nil {
			return loaded, err
		}
		version := binary.LittleEndian.Uint64(rec[16:24])
		home := rec[24]&1 != 0
		size := binary.LittleEndian.Uint64(rec[25:33])
		if size > 1<<40 {
			return loaded, fmt.Errorf("%w: absurd object size %d", ErrBadSnapshot, size)
		}
		raw := make([]byte, size)
		if _, err := io.ReadFull(br, raw); err != nil {
			return loaded, fmt.Errorf("%w: object %s bytes: %v", ErrBadSnapshot, id.Short(), err)
		}
		o, err := object.FromBytes(id, raw)
		if err != nil {
			return loaded, fmt.Errorf("%w: object %s: %v", ErrBadSnapshot, id.Short(), err)
		}
		if err := s.Put(o, version, home); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}
