package p4sim

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/oid"
	"repro/internal/wire"
)

var gen = oid.NewSeededGenerator(77)

func exactObjTable(t *testing.T, mem int) *Table {
	t.Helper()
	tb, err := NewTable("t", []Key{{Field: wire.FieldObject, Kind: MatchExact}},
		TableConfig{MemoryBytes: mem})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", nil, TableConfig{}); err == nil {
		t.Fatal("accepted empty key schema")
	}
	if _, err := NewTable("t", []Key{{Field: wire.Field(99)}}, TableConfig{}); err == nil {
		t.Fatal("accepted unknown field")
	}
	wide := make([]Key, maxStackKeys+1)
	for i := range wide {
		wide[i] = Key{Field: wire.FieldSeq, Kind: MatchTernary}
	}
	if _, err := NewTable("t", wide, TableConfig{}); err == nil {
		t.Fatalf("accepted %d key components", len(wide))
	}
	if _, err := NewTable("t", wide[:maxStackKeys], TableConfig{}); err != nil {
		t.Fatalf("refused %d key components: %v", maxStackKeys, err)
	}
}

func TestExactInsertLookup(t *testing.T) {
	tb := exactObjTable(t, -1)
	id := gen.New()
	err := tb.Insert(Entry{
		Match:  []KeyValue{{Value: wire.ValueOfID(id)}},
		Action: Action{Type: ActForward, Port: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	act, ok := tb.Lookup(&wire.Header{Object: id})
	if !ok || act.Type != ActForward || act.Port != 3 {
		t.Fatalf("Lookup = %+v, %v", act, ok)
	}
	if _, ok := tb.Lookup(&wire.Header{Object: gen.New()}); ok {
		t.Fatal("lookup hit for uninstalled object")
	}
	// Replacement of same key does not grow the table.
	tb.Insert(Entry{
		Match:  []KeyValue{{Value: wire.ValueOfID(id)}},
		Action: Action{Type: ActForward, Port: 7},
	})
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after replace", tb.Len())
	}
	act, _ = tb.Lookup(&wire.Header{Object: id})
	if act.Port != 7 {
		t.Fatalf("replaced entry port = %d", act.Port)
	}
}

func TestDelete(t *testing.T) {
	tb := exactObjTable(t, -1)
	id := gen.New()
	m := []KeyValue{{Value: wire.ValueOfID(id)}}
	tb.Insert(Entry{Match: m, Action: Action{Type: ActDrop}})
	if !tb.Delete(m) {
		t.Fatal("Delete returned false")
	}
	if tb.Delete(m) {
		t.Fatal("double Delete returned true")
	}
	if _, ok := tb.Lookup(&wire.Header{Object: id}); ok {
		t.Fatal("deleted entry still matches")
	}
}

func TestInsertArityValidation(t *testing.T) {
	tb := exactObjTable(t, -1)
	if err := tb.Insert(Entry{Match: nil}); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("arity: %v", err)
	}
}

func TestCapacityNumbers(t *testing.T) {
	// §3.2: ~1.8M exact entries with 64-bit keys, ~850K with 128-bit.
	t64, err := NewTable("t64", []Key{{Field: wire.FieldSeq, Kind: MatchExact}}, TableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t128, err := NewTable("t128", []Key{{Field: wire.FieldObject, Kind: MatchExact}}, TableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c64, c128 := t64.Capacity(), t128.Capacity()
	if c64 < 1_700_000 || c64 > 1_900_000 {
		t.Errorf("64-bit capacity = %d, want ~1.8M", c64)
	}
	if c128 < 800_000 || c128 > 900_000 {
		t.Errorf("128-bit capacity = %d, want ~850K", c128)
	}
	if c64 <= c128 {
		t.Error("64-bit keys should pack denser than 128-bit")
	}
}

func TestTableFull(t *testing.T) {
	// Tiny budget: 16B/entry at 0.92 fill over 64B = 3 entries.
	tb, err := NewTable("tiny", []Key{{Field: wire.FieldSeq, Kind: MatchExact}},
		TableConfig{MemoryBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Capacity() != 3 {
		t.Fatalf("Capacity = %d", tb.Capacity())
	}
	for i := 0; i < 3; i++ {
		err := tb.Insert(Entry{Match: []KeyValue{{Value: wire.ValueOf(uint64(i))}}})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if !tb.Full() {
		t.Fatal("Full = false at capacity")
	}
	err = tb.Insert(Entry{Match: []KeyValue{{Value: wire.ValueOf(99)}}})
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("over-capacity insert: %v", err)
	}
	// Replacing an existing key is still allowed at capacity.
	if err := tb.Insert(Entry{Match: []KeyValue{{Value: wire.ValueOf(1)}}}); err != nil {
		t.Fatalf("replace at capacity: %v", err)
	}
}

func TestTernaryMatch(t *testing.T) {
	tb, err := NewTable("tern", []Key{{Field: wire.FieldFlags, Kind: MatchTernary}},
		TableConfig{MemoryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Match any frame with FlagReliable set.
	err = tb.Insert(Entry{
		Match: []KeyValue{{
			Value: wire.ValueOf(uint64(wire.FlagReliable)),
			Mask:  wire.ValueOf(uint64(wire.FlagReliable)),
		}},
		Priority: 1,
		Action:   Action{Type: ActForward, Port: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Lookup(&wire.Header{Flags: wire.FlagReliable | wire.FlagResponse}); !ok {
		t.Fatal("ternary miss on flag superset")
	}
	if _, ok := tb.Lookup(&wire.Header{Flags: wire.FlagResponse}); ok {
		t.Fatal("ternary hit without required flag")
	}
}

// TestLPMPrefixBeyond64 checks an object prefix longer than 64 bits, written
// as a ternary mask: a /72 covers all of Hi and the top byte of Lo.
func TestLPMPrefixBeyond64(t *testing.T) {
	tb, err := NewTable("tern", []Key{{Field: wire.FieldObject, Kind: MatchTernary}},
		TableConfig{MemoryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb.Insert(Entry{
		Match: []KeyValue{{
			Value: wire.ValueOfID(oid.ID{Hi: 0x1234, Lo: 0xFF00_0000_0000_0000}),
			Mask:  wire.Value{Hi: ^uint64(0), Lo: 0xFF00_0000_0000_0000},
		}},
		Priority: 72,
		Action:   Action{Type: ActForward, Port: 4},
	})
	for _, c := range []struct {
		id   oid.ID
		want bool
	}{
		{oid.ID{Hi: 0x1234, Lo: 0xFF12_3456_789A_BCDE}, true},
		{oid.ID{Hi: 0x1234, Lo: 0xFE00_0000_0000_0000}, false}, // Lo's top byte differs
		{oid.ID{Hi: 0x9999, Lo: 0xFF00_0000_0000_0000}, false}, // Hi differs
	} {
		if _, ok := tb.Lookup(&wire.Header{Object: c.id}); ok != c.want {
			t.Errorf("/72 prefix, object %v: hit %v, want %v", c.id, ok, c.want)
		}
	}
}

func TestTernaryPriority(t *testing.T) {
	tb, _ := NewTable("tern", []Key{{Field: wire.FieldSrc, Kind: MatchTernary}},
		TableConfig{MemoryBytes: -1})
	// Low priority: match-all → drop.
	tb.Insert(Entry{
		Match:    []KeyValue{{Value: wire.ValueOf(0), Mask: wire.ValueOf(0)}},
		Priority: 0,
		Action:   Action{Type: ActDrop},
	})
	// High priority: src 5 → forward.
	tb.Insert(Entry{
		Match:    []KeyValue{{Value: wire.ValueOf(5), Mask: wire.ValueOf(^uint64(0))}},
		Priority: 10,
		Action:   Action{Type: ActForward, Port: 2},
	})
	act, ok := tb.Lookup(&wire.Header{Src: 5})
	if !ok || act.Type != ActForward {
		t.Fatalf("priority: %+v %v", act, ok)
	}
	act, ok = tb.Lookup(&wire.Header{Src: 6})
	if !ok || act.Type != ActDrop {
		t.Fatalf("fallback: %+v %v", act, ok)
	}
}

// TestLPMOnObject checks longest-prefix routing on object IDs with ternary
// entries whose priority is their prefix length: an /8 and a /16 inside it.
func TestLPMOnObject(t *testing.T) {
	tb, _ := NewTable("tern", []Key{{Field: wire.FieldObject, Kind: MatchTernary}},
		TableConfig{MemoryBytes: -1})
	for _, p := range []struct {
		hi, mask uint64
		bits     int
	}{
		{0xAA00_0000_0000_0000, 0xFF00_0000_0000_0000, 8},
		{0xAABB_0000_0000_0000, 0xFFFF_0000_0000_0000, 16},
	} {
		tb.Insert(Entry{
			Match:    []KeyValue{{Value: wire.Value{Hi: p.hi}, Mask: wire.Value{Hi: p.mask}}},
			Priority: p.bits,
			Action:   Action{Type: ActForward, Port: p.bits / 8},
		})
	}
	for _, c := range []struct {
		hi   uint64
		port int // 0: no prefix matches
	}{
		{0xAABB_CCDD_0000_0000, 2}, // under both: the /16
		{0xAA11_0000_0000_0000, 1}, // under the /8 only
		{0xBB00_0000_0000_0000, 0},
	} {
		act, ok := tb.Lookup(&wire.Header{Object: oid.ID{Hi: c.hi}})
		if ok != (c.port != 0) || ok && act.Port != c.port {
			t.Errorf("object %#x: %+v %v, want port %d", c.hi, act, ok, c.port)
		}
	}
}

func TestScanDeleteAndClear(t *testing.T) {
	tb, _ := NewTable("tern", []Key{{Field: wire.FieldSrc, Kind: MatchTernary}},
		TableConfig{MemoryBytes: -1})
	m := []KeyValue{{Value: wire.ValueOf(1), Mask: wire.ValueOf(^uint64(0))}}
	tb.Insert(Entry{Match: m, Action: Action{Type: ActDrop}})
	if !tb.Delete(m) {
		t.Fatal("scan delete failed")
	}
	tb.Insert(Entry{Match: m})
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatal("Clear left entries")
	}
}

func TestEntryCostWiderForTernary(t *testing.T) {
	ex, _ := NewTable("e", []Key{{Field: wire.FieldObject, Kind: MatchExact}}, TableConfig{})
	tern, _ := NewTable("t", []Key{{Field: wire.FieldObject, Kind: MatchTernary}}, TableConfig{})
	if tern.EntryCost() <= ex.EntryCost() {
		t.Fatalf("ternary cost %d <= exact cost %d", tern.EntryCost(), ex.EntryCost())
	}
}

func TestPropertyExactLookupFindsInserted(t *testing.T) {
	f := func(hi, lo uint64, port uint8) bool {
		if hi == 0 && lo == 0 {
			return true
		}
		tb := &Table{}
		var err error
		tb, err = NewTable("p", []Key{{Field: wire.FieldObject, Kind: MatchExact}},
			TableConfig{MemoryBytes: -1})
		if err != nil {
			return false
		}
		id := oid.ID{Hi: hi, Lo: lo}
		if err := tb.Insert(Entry{
			Match:  []KeyValue{{Value: wire.ValueOfID(id)}},
			Action: Action{Type: ActForward, Port: int(port)},
		}); err != nil {
			return false
		}
		act, ok := tb.Lookup(&wire.Header{Object: id})
		return ok && act.Port == int(port)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchKindActionStrings(t *testing.T) {
	if MatchExact.String() != "exact" || MatchTernary.String() != "ternary" ||
		MatchKind(9).String() != "match(9)" {
		t.Fatal("match kind names")
	}
	if ActFlood.String() != "flood" || ActToController.String() != "to-controller" ||
		ActDrop.String() != "drop" || ActForward.String() != "forward" ||
		ActionType(9).String() != "action(9)" {
		t.Fatal("action names")
	}
}

func BenchmarkExactLookup(b *testing.B) {
	tb, _ := NewTable("b", []Key{{Field: wire.FieldObject, Kind: MatchExact}},
		TableConfig{MemoryBytes: -1})
	ids := make([]oid.ID, 1000)
	for i := range ids {
		ids[i] = gen.New()
		tb.Insert(Entry{
			Match:  []KeyValue{{Value: wire.ValueOfID(ids[i])}},
			Action: Action{Type: ActForward, Port: i % 16},
		})
	}
	h := &wire.Header{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Object = ids[i%len(ids)]
		if _, ok := tb.Lookup(h); !ok {
			b.Fatal("miss")
		}
	}
}
