// Package oid implements 128-bit object identifiers for the global
// address space.
//
// Following the paper (§3.1), the ID space is large enough that new IDs
// can be allocated without a centralized arbiter: a fresh ID is drawn
// from secure randomness and the chance of collision is vanishingly
// small. For deterministic simulation the package also provides a
// seeded generator.
package oid

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
)

// Size is the encoded size of an ID in bytes.
const Size = 16

// ID is a 128-bit object identifier. The zero ID is invalid and never
// allocated; it is used as a sentinel ("no object").
type ID struct {
	Hi uint64
	Lo uint64
}

// Nil is the zero ID.
var Nil ID

// ErrBadID reports a malformed textual or binary ID.
var ErrBadID = errors.New("oid: malformed object ID")

// IsNil reports whether id is the zero ID.
func (id ID) IsNil() bool { return id.Hi == 0 && id.Lo == 0 }

// Bytes returns the big-endian 16-byte encoding of id.
func (id ID) Bytes() [Size]byte {
	var b [Size]byte
	binary.BigEndian.PutUint64(b[0:8], id.Hi)
	binary.BigEndian.PutUint64(b[8:16], id.Lo)
	return b
}

// PutBytes writes the big-endian encoding of id into b, which must be
// at least Size bytes long.
func (id ID) PutBytes(b []byte) {
	_ = b[Size-1]
	binary.BigEndian.PutUint64(b[0:8], id.Hi)
	binary.BigEndian.PutUint64(b[8:16], id.Lo)
}

// FromBytes decodes an ID from the first Size bytes of b.
func FromBytes(b []byte) (ID, error) {
	if len(b) < Size {
		return Nil, fmt.Errorf("%w: need %d bytes, have %d", ErrBadID, Size, len(b))
	}
	return ID{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}, nil
}

// String formats id as 32 lowercase hex digits with a colon between the
// two 64-bit halves, e.g. "00000000deadbeef:0123456789abcdef".
func (id ID) String() string {
	var b [Size]byte
	id.PutBytes(b[:])
	dst := make([]byte, 33)
	hex.Encode(dst[0:16], b[0:8])
	dst[16] = ':'
	hex.Encode(dst[17:33], b[8:16])
	return string(dst)
}

// Short returns an abbreviated form of the ID for logs: the low 8 hex
// digits.
func (id ID) Short() string {
	return fmt.Sprintf("%08x", uint32(id.Lo))
}

// Compare returns -1, 0, or +1 ordering IDs lexicographically by their
// big-endian encoding.
func (id ID) Compare(other ID) int {
	switch {
	case id.Hi < other.Hi:
		return -1
	case id.Hi > other.Hi:
		return 1
	case id.Lo < other.Lo:
		return -1
	case id.Lo > other.Lo:
		return 1
	}
	return 0
}

// Less reports whether id orders before other.
func (id ID) Less(other ID) bool { return id.Compare(other) < 0 }

// Generator allocates fresh IDs. The zero value is not usable; construct
// with NewGenerator (secure randomness) or NewSeededGenerator
// (deterministic, for simulation).
type Generator struct {
	mu   sync.Mutex
	rnd  *mrand.Rand // nil => crypto/rand
	used map[ID]struct{}
}

// NewGenerator returns a Generator backed by crypto/rand, matching the
// paper's "secure random numbers" allocation policy.
func NewGenerator() *Generator {
	return &Generator{used: make(map[ID]struct{})}
}

// NewSeededGenerator returns a deterministic Generator for simulations
// and tests.
func NewSeededGenerator(seed int64) *Generator {
	return &Generator{
		rnd:  mrand.New(mrand.NewSource(seed)),
		used: make(map[ID]struct{}),
	}
}

// random draws raw random words (callers hold g.mu).
func (g *Generator) random() ID {
	if g.rnd != nil {
		return ID{Hi: g.rnd.Uint64(), Lo: g.rnd.Uint64()}
	}
	var b [Size]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable.
		panic("oid: crypto/rand failed: " + err.Error())
	}
	id, _ := FromBytes(b[:])
	return id
}

// NewInPrefix allocates a fresh ID whose high bits match p — the
// allocation policy behind hierarchical identifier overlays (§3.2),
// where a node's objects share its prefix so one switch rule covers
// them all. It panics if the prefix's ID space is effectively
// exhausted (a /128 prefix holds exactly one ID).
func (g *Generator) NewInPrefix(p Prefix) ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	for attempt := 0; ; attempt++ {
		id := g.random()
		switch {
		case p.Bits <= 0:
			// Whole space: nothing to force.
		case p.Bits <= 64:
			mask := ^uint64(0) << uint(64-p.Bits)
			id.Hi = (p.ID.Hi & mask) | (id.Hi &^ mask)
		default:
			mask := ^uint64(0) << uint(128-p.Bits)
			id.Hi = p.ID.Hi
			id.Lo = (p.ID.Lo & mask) | (id.Lo &^ mask)
		}
		if !id.IsNil() {
			if _, dup := g.used[id]; !dup {
				g.used[id] = struct{}{}
				return id
			}
		}
		if attempt > 1<<16 {
			panic("oid: prefix ID space exhausted: " + p.String())
		}
	}
}

// New allocates a fresh non-nil ID, never repeating an ID from this
// generator.
func (g *Generator) New() ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		id := g.random()
		if id.IsNil() {
			continue
		}
		if _, dup := g.used[id]; dup {
			continue
		}
		g.used[id] = struct{}{}
		return id
	}
}

// Prefix is a hierarchical ID prefix: the high Bits bits of an ID. It
// supports the overlay routing schemes sketched in §3.2 ("hierarchical
// identifier overlay schemes") where switches route on a prefix of the
// object ID rather than exact entries.
type Prefix struct {
	ID   ID
	Bits int // 0..128
}

// MakePrefix masks id down to its high bits and returns the prefix.
func MakePrefix(id ID, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 128 {
		bits = 128
	}
	p := Prefix{Bits: bits}
	switch {
	case bits == 0:
		// ID stays Nil: matches everything.
	case bits <= 64:
		p.ID.Hi = id.Hi &^ (^uint64(0) >> uint(bits))
	default:
		p.ID.Hi = id.Hi
		p.ID.Lo = id.Lo &^ (^uint64(0) >> uint(bits-64))
	}
	return p
}

// Matches reports whether id falls under the prefix.
func (p Prefix) Matches(id ID) bool {
	switch {
	case p.Bits <= 0:
		return true
	case p.Bits <= 64:
		mask := ^uint64(0) << uint(64-p.Bits)
		return id.Hi&mask == p.ID.Hi&mask
	default:
		if id.Hi != p.ID.Hi {
			return false
		}
		mask := ^uint64(0) << uint(128-p.Bits)
		return id.Lo&mask == p.ID.Lo&mask
	}
}

// String formats the prefix as "<id>/<bits>".
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.ID, p.Bits)
}
