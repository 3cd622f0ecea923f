package memproto

import (
	"bytes"
	"math"
	"testing"
)

// FuzzMsgUnmarshal ensures Unmarshal never panics and an accepted
// message re-encodes to the bytes it was read from (but the reserved
// byte, which switches own in flight) and decodes back whole.
func FuzzMsgUnmarshal(f *testing.F) {
	f.Add((&Msg{Op: OpReadReq, Offset: 64, Length: 64}).Marshal(nil))
	f.Add((&Msg{Op: OpObjectPush, TotalLen: 100, Data: []byte("abc")}).Marshal(nil))
	f.Add((&Msg{Op: OpRelease, Version: 7}).Marshal(nil)) // a release without data, which no station sends
	f.Add((&Msg{Op: OpGrant, Status: 0xff, Perm: 0xff, Length: math.MaxUint32, Offset: math.MaxUint64,
		Version: math.MaxUint64, FragOffset: math.MaxUint64, TotalLen: math.MaxUint64, Data: []byte("x")}).Marshal(nil))
	f.Add([]byte{byte(OpReadReq), 0, 0, 0, 0x80, 0x00, 0, 0, 0, 0, 0}) // overlong zero
	f.Add([]byte{byte(OpReadReq), 0, 0, 0, 0, 0x80})                   // truncated uvarint
	f.Add([]byte{})
	f.Add(make([]byte, headerSize))
	f.Add(make([]byte, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		if err := m.Unmarshal(data); err != nil {
			return
		}
		re := m.Marshal(nil)
		if len(re) > len(data) || !bytes.Equal(re[:3], data[:3]) || !bytes.Equal(re[4:], data[4:len(re)]) {
			t.Fatalf("re-encoded % x from % x", re, data)
		}
		var m2 Msg
		if err := m2.Unmarshal(re); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if !sameMsg(&m2, &m) {
			t.Fatal("round trip changed message")
		}
	})
}

// FuzzReassembler feeds the reassembler whatever one frame can carry —
// TotalLen and FragOffset are 64 bits on the wire — and requires an
// error or an in-bounds result, never a panic or an allocation sized
// by the sender alone.
func FuzzReassembler(f *testing.F) {
	f.Add(uint64(100), uint64(0), []byte("0123456789"))
	f.Add(uint64(10), uint64(5), []byte("abcdef"))
	f.Add(uint64(0), uint64(0), []byte{})
	f.Add(uint64(1)<<62, uint64(0), []byte("x"))
	f.Add(uint64(64), ^uint64(0)-3, []byte("12345678"))
	f.Add(uint64(MaxTransferLen)+1, uint64(0), []byte{})

	f.Fuzz(func(t *testing.T, total, fragOff uint64, data []byte) {
		var r Reassembler
		m := &Msg{Op: OpObjectPush, TotalLen: total, FragOffset: fragOff, Data: data}
		done, err := r.Add(m)
		if err != nil {
			if r.Bytes() != nil {
				t.Fatalf("refused fragment left a %d-byte region", len(r.Bytes()))
			}
			return
		}
		if total > MaxTransferLen || uint64(len(r.Bytes())) != total {
			t.Fatalf("accepted total %d with a %d-byte region", total, len(r.Bytes()))
		}
		if done != (fragOff == 0 && uint64(len(data)) == total) {
			t.Fatalf("done=%v for [%d,+%d) of %d", done, fragOff, len(data), total)
		}
	})
}

// FuzzReassemblerSequence drives multi-fragment transfers through
// adversarial delivery — shuffled order, per-fragment duplication, and
// (stride < maxData) fragments that overlap their neighbours — and
// checks the reassembler against a byte-per-byte model of coverage:
// completion fires exactly when the last uncovered byte lands, never
// early on duplicate bytes, whether a fragment extends the covered
// prefix in place or goes through the general span merge. Every
// sequence runs twice: into a fresh allocation, and into a dirty region
// of size+spare bytes (Into) whose every byte differs from the source's,
// which a completed transfer must have overwritten in full — and which
// must be left untouched when it is too small to hold the transfer.
func FuzzReassemblerSequence(f *testing.F) {
	f.Add(uint16(5000), uint16(512), uint16(0), uint64(1), uint64(0), int16(0))
	f.Add(uint16(3000), uint16(1024), uint16(0), uint64(7), uint64(5), int16(100))
	f.Add(uint16(100), uint16(0), uint16(0), uint64(42), ^uint64(0), int16(-1))
	f.Add(uint16(4000), uint16(500), uint16(300), uint64(3), uint64(9), int16(-4000))
	f.Add(uint16(2500), uint16(700), uint16(1), uint64(0), uint64(0), int16(7)) // in order: the prefix path alone

	f.Fuzz(func(t *testing.T, size, maxData, stride uint16, perm, dupMask uint64, spare int16) {
		raw := make([]byte, int(size))
		for i := range raw {
			raw[i] = byte(i*13 + 7)
		}
		frags := Fragment(raw, 9, int(maxData))
		// Overlapping cover: a fragment of the same length every step
		// bytes, the last ones cut at the end — while the bytes that
		// copies (fragments × length) stay a few MB per execution.
		n := len(frags[0].Data)
		if step := min(int(stride), n); step > 0 && (len(raw)/step)*n <= 4<<20 {
			frags = frags[:0]
			for off := 0; off < len(raw); off += step {
				frags = append(frags, Msg{Op: OpObjectPush, Version: 9, FragOffset: uint64(off),
					TotalLen: uint64(len(raw)), Data: raw[off:min(off+n, len(raw))]})
			}
		}
		order := make([]int, len(frags))
		for i := range order {
			order[i] = i
		}
		if perm != 0 { // perm 0 keeps wire order
			state := perm
			for i := len(order) - 1; i > 0; i-- {
				state = state*6364136223846793005 + 1442695040888963407
				j := int(state % uint64(i+1))
				order[i], order[j] = order[j], order[i]
			}
		}
		feed := func(r *Reassembler) {
			covered, missing := make([]bool, len(raw)), len(raw)
			for _, idx := range order {
				copies := 1
				if dupMask&(1<<(uint(idx)%64)) != 0 {
					copies = 2
				}
				for k := 0; k < copies; k++ {
					fr := &frags[idx]
					done, err := r.Add(fr)
					if err != nil {
						t.Fatalf("Add(frag %d): %v", idx, err)
					}
					for i := range fr.Data {
						if at := int(fr.FragOffset) + i; !covered[at] {
							covered[at] = true
							missing--
						}
					}
					if done != (missing == 0) {
						t.Fatalf("done=%v with %d bytes uncovered after frag %d", done, missing, idx)
					}
				}
			}
			if missing != 0 || !bytes.Equal(r.Bytes(), raw) {
				t.Fatalf("reassembly mismatch (%d bytes uncovered)", missing)
			}
		}
		var fresh Reassembler
		feed(&fresh)
		if fresh.Reused() {
			t.Fatal("a transfer offered no region reports reusing one")
		}

		dirty := make([]byte, max(0, len(raw)+int(spare)))
		for i := range dirty {
			dirty[i] = ^byte(i*13 + 7)
		}
		pristine := bytes.Clone(dirty)
		var r Reassembler
		r.Into(dirty)
		feed(&r)
		fits := len(dirty) >= len(raw)
		if r.Reused() != fits {
			t.Fatalf("reused=%v for a %d-byte region and a %d-byte transfer", r.Reused(), len(dirty), len(raw))
		}
		if fits && len(raw) > 0 && &r.Bytes()[0] != &dirty[0] {
			t.Fatal("a region that fits was not the one reassembled into")
		}
		if !fits && !bytes.Equal(dirty, pristine) {
			t.Fatal("a region too small for the transfer was written")
		}
	})
}
