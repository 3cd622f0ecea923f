package oid

import (
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

func TestNilID(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil.IsNil() = false")
	}
	if (ID{Hi: 1}).IsNil() {
		t.Fatal("non-zero ID reported nil")
	}
	if (ID{Lo: 1}).IsNil() {
		t.Fatal("non-zero ID reported nil")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	id := ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	b := id.Bytes()
	got, err := FromBytes(b[:])
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if got != id {
		t.Fatalf("round trip: got %v want %v", got, id)
	}
}

func TestFromBytesShort(t *testing.T) {
	if _, err := FromBytes(make([]byte, 15)); err == nil {
		t.Fatal("FromBytes accepted 15 bytes")
	}
}

// fromString reads String's form back: 16 hex digits of Hi, a colon, 16
// of Lo.
func fromString(s string) (ID, error) {
	raw, err := hex.DecodeString(strings.Replace(s, ":", "", 1))
	if err != nil {
		return Nil, err
	}
	return FromBytes(raw)
}

func TestStringParse(t *testing.T) {
	id := ID{Hi: 0xdeadbeef, Lo: 0x0123456789abcdef}
	s := id.String()
	if len(s) != 33 || s[16] != ':' {
		t.Fatalf("String() = %q, want 16 hex digits, a colon, 16 hex digits", s)
	}
	got, err := fromString(s)
	if err != nil {
		t.Fatalf("String() = %q: %v", s, err)
	}
	if got != id {
		t.Fatalf("String() reads back as %v, want %v", got, id)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{ID{}, ID{}, 0},
		{ID{Hi: 1}, ID{Hi: 2}, -1},
		{ID{Hi: 2}, ID{Hi: 1}, 1},
		{ID{Hi: 1, Lo: 5}, ID{Hi: 1, Lo: 9}, -1},
		{ID{Hi: 1, Lo: 9}, ID{Hi: 1, Lo: 5}, 1},
		{ID{Hi: 7, Lo: 7}, ID{Hi: 7, Lo: 7}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
		if got := c.a.Less(c.b); got != (c.want < 0) {
			t.Errorf("Less(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestGeneratorUnique(t *testing.T) {
	g := NewSeededGenerator(42)
	seen := make(map[ID]struct{})
	for i := 0; i < 10000; i++ {
		id := g.New()
		if id.IsNil() {
			t.Fatal("generator produced Nil")
		}
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id] = struct{}{}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewSeededGenerator(7), NewSeededGenerator(7)
	for i := 0; i < 100; i++ {
		if x, y := a.New(), b.New(); x != y {
			t.Fatalf("seeded generators diverged at %d: %v vs %v", i, x, y)
		}
	}
}

func TestNewInPrefix(t *testing.T) {
	g := NewSeededGenerator(9)
	p := MakePrefix(ID{Hi: 0xABCD_0000_0000_0000}, 16)
	seen := map[ID]bool{}
	for i := 0; i < 500; i++ {
		id := g.NewInPrefix(p)
		if !p.Matches(id) {
			t.Fatalf("ID %v outside prefix %v", id, p)
		}
		if seen[id] {
			t.Fatalf("duplicate %v", id)
		}
		seen[id] = true
	}
	// Long prefixes (>64 bits) too.
	p2 := MakePrefix(ID{Hi: 7, Lo: 0xFF00_0000_0000_0000}, 72)
	for i := 0; i < 100; i++ {
		if id := g.NewInPrefix(p2); !p2.Matches(id) {
			t.Fatalf("ID %v outside long prefix", id)
		}
	}
	// Zero-bit prefix behaves like New.
	if id := g.NewInPrefix(MakePrefix(Nil, 0)); id.IsNil() {
		t.Fatal("nil ID from /0 prefix")
	}
}

func TestPropertyNewInPrefixMatches(t *testing.T) {
	g := NewSeededGenerator(10)
	f := func(hi, lo uint64, bits uint8) bool {
		p := MakePrefix(ID{Hi: hi, Lo: lo}, int(bits)%129)
		return p.Matches(g.NewInPrefix(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSecureGenerator(t *testing.T) {
	g := NewGenerator()
	a, b := g.New(), g.New()
	if a == b {
		t.Fatal("secure generator repeated an ID")
	}
	if a.IsNil() || b.IsNil() {
		t.Fatal("secure generator produced Nil")
	}
}

func TestPrefixBasic(t *testing.T) {
	id := ID{Hi: 0xAABBCCDD_00000000, Lo: 0x11223344_55667788}
	p := MakePrefix(id, 32)
	if !p.Matches(id) {
		t.Fatal("prefix does not match its own ID")
	}
	other := ID{Hi: 0xAABBCCDD_FFFFFFFF, Lo: 0}
	if !p.Matches(other) {
		t.Fatal("prefix /32 should match ID sharing high 32 bits")
	}
	diff := ID{Hi: 0xAABBCCDE_00000000}
	if p.Matches(diff) {
		t.Fatal("prefix matched ID with different high bits")
	}
}

func TestPrefixLongerThan64(t *testing.T) {
	id := ID{Hi: 0x1, Lo: 0xFF00000000000000}
	p := MakePrefix(id, 72)
	if !p.Matches(ID{Hi: 0x1, Lo: 0xFF12345678ABCDEF}) {
		t.Fatal("prefix /72 should match IDs sharing Hi and high 8 bits of Lo")
	}
	if p.Matches(ID{Hi: 0x1, Lo: 0xFE00000000000000}) {
		t.Fatal("prefix /72 matched wrong Lo bits")
	}
	if p.Matches(ID{Hi: 0x2, Lo: 0xFF00000000000000}) {
		t.Fatal("prefix /72 matched wrong Hi")
	}
}

func TestPrefixExtremes(t *testing.T) {
	id := ID{Hi: 5, Lo: 9}
	if !MakePrefix(id, 0).Matches(ID{Hi: 123, Lo: 456}) {
		t.Fatal("/0 prefix should match everything")
	}
	p := MakePrefix(id, 128)
	if !p.Matches(id) {
		t.Fatal("/128 prefix should match exactly its ID")
	}
	if p.Matches(ID{Hi: 5, Lo: 8}) {
		t.Fatal("/128 prefix matched different ID")
	}
	// Clamping.
	if MakePrefix(id, -5).Bits != 0 || MakePrefix(id, 500).Bits != 128 {
		t.Fatal("MakePrefix did not clamp bits")
	}
}

func TestPropertyStringParseRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		id := ID{Hi: hi, Lo: lo}
		got, err := fromString(id.String())
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBytesRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		id := ID{Hi: hi, Lo: lo}
		b := id.Bytes()
		got, err := FromBytes(b[:])
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareAntisymmetric(t *testing.T) {
	f := func(a1, a2, b1, b2 uint64) bool {
		a, b := ID{Hi: a1, Lo: a2}, ID{Hi: b1, Lo: b2}
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPrefixMatchesSelf(t *testing.T) {
	f := func(hi, lo uint64, bits uint8) bool {
		id := ID{Hi: hi, Lo: lo}
		return MakePrefix(id, int(bits)%129).Matches(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShort(t *testing.T) {
	id := ID{Hi: 0, Lo: 0xDEADBEEF}
	if got := id.Short(); got != "deadbeef" {
		t.Fatalf("Short() = %q", got)
	}
}

func BenchmarkGeneratorSeeded(b *testing.B) {
	g := NewSeededGenerator(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.New()
	}
}

func BenchmarkIDString(b *testing.B) {
	id := ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = id.String()
	}
}
