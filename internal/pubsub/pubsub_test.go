package pubsub

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

var gen = oid.NewSeededGenerator(31)

func filterTable(t *testing.T) *p4sim.Table {
	t.Helper()
	tb, err := NewFilterTable("filters", p4sim.TableConfig{MemoryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestEqEval(t *testing.T) {
	id := gen.New()
	p := Eq(wire.FieldObject, wire.ValueOfID(id))
	if !p.Eval(&wire.Header{Object: id}) {
		t.Fatal("Eq miss")
	}
	if p.Eval(&wire.Header{Object: gen.New()}) {
		t.Fatal("Eq false hit")
	}
	if EqType(wire.MsgDiscover).Eval(&wire.Header{Type: wire.MsgMem}) {
		t.Fatal("EqType false hit")
	}
}

func TestMaskEval(t *testing.T) {
	p := Mask(wire.FieldFlags,
		wire.ValueOf(uint64(wire.FlagReliable)),
		wire.ValueOf(uint64(wire.FlagReliable)))
	if !p.Eval(&wire.Header{Flags: wire.FlagReliable | wire.FlagResponse}) {
		t.Fatal("mask miss")
	}
	if p.Eval(&wire.Header{Flags: wire.FlagResponse}) {
		t.Fatal("mask false hit")
	}
}

func TestPrefixEval(t *testing.T) {
	base := oid.ID{Hi: 0xABCD_0000_0000_0000}
	p := Prefix(wire.FieldObject, wire.ValueOfID(base), 16)
	if !p.Eval(&wire.Header{Object: oid.ID{Hi: 0xABCD_1234_5678_0000, Lo: 99}}) {
		t.Fatal("prefix miss")
	}
	if p.Eval(&wire.Header{Object: oid.ID{Hi: 0xABCE_0000_0000_0000}}) {
		t.Fatal("prefix false hit")
	}
}

func TestPrefixMaskWidths(t *testing.T) {
	// 16-bit field, high 8 bits.
	m := prefixMask(16, 8)
	if m.Lo != 0xFF00 || m.Hi != 0 {
		t.Fatalf("prefixMask(16,8) = %x:%x", m.Hi, m.Lo)
	}
	// 64-bit field, full width.
	m = prefixMask(64, 64)
	if m.Lo != ^uint64(0) {
		t.Fatalf("prefixMask(64,64) = %x", m.Lo)
	}
	// 128-bit field, 72 bits.
	m = prefixMask(128, 72)
	allOnes := ^uint64(0)
	if m.Hi != allOnes || m.Lo != allOnes<<56 {
		t.Fatalf("prefixMask(128,72) = %x:%x", m.Hi, m.Lo)
	}
	// Zero bits = empty mask.
	if prefixMask(64, 0) != (wire.Value{}) {
		t.Fatal("prefixMask(64,0)")
	}
	// Clamp beyond width.
	if prefixMask(8, 50).Lo != 0xFF {
		t.Fatalf("clamp = %x", prefixMask(8, 50).Lo)
	}
}

func TestAndOrTrue(t *testing.T) {
	id := gen.New()
	p := And(EqType(wire.MsgMem), Eq(wire.FieldObject, wire.ValueOfID(id)))
	if !p.Eval(&wire.Header{Type: wire.MsgMem, Object: id}) {
		t.Fatal("And miss")
	}
	if p.Eval(&wire.Header{Type: wire.MsgAck, Object: id}) {
		t.Fatal("And false hit")
	}
	q := Or(EqType(wire.MsgMem), EqType(wire.MsgAck))
	if !q.Eval(&wire.Header{Type: wire.MsgAck}) || q.Eval(&wire.Header{Type: wire.MsgHello}) {
		t.Fatal("Or wrong")
	}
	if !True().Eval(&wire.Header{}) {
		t.Fatal("True")
	}
	if p.String() == "" || q.String() == "" || True().String() != "true" {
		t.Fatal("String")
	}
}

func TestSubscribeAndSoftwareMatch(t *testing.T) {
	e := NewEngine()
	id1, err := e.Subscribe(EqType(wire.MsgDiscover), p4sim.Action{Type: p4sim.ActForward, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.Subscribe(True(), p4sim.Action{Type: p4sim.ActDrop})
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("duplicate IDs")
	}
	act, ok := e.Match(&wire.Header{Type: wire.MsgDiscover})
	if !ok || act.Port != 1 {
		t.Fatalf("Match = %+v %v", act, ok)
	}
	act, ok = e.Match(&wire.Header{Type: wire.MsgMem})
	if !ok || act.Type != p4sim.ActDrop {
		t.Fatalf("fallback Match = %+v %v", act, ok)
	}
	if subs := e.Subscriptions(); len(subs) != 2 || subs[0].ID != id1 || subs[1].ID != id2 {
		t.Fatalf("Subscriptions = %+v", subs)
	}
}

func TestSubscribeRejectsUnsatisfiable(t *testing.T) {
	e := NewEngine()
	contradiction := And(EqType(wire.MsgMem), EqType(wire.MsgAck))
	if _, err := e.Subscribe(contradiction, p4sim.Action{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileToTable(t *testing.T) {
	e := NewEngine()
	id := gen.New()
	e.Subscribe(And(EqType(wire.MsgMem), Eq(wire.FieldObject, wire.ValueOfID(id))),
		p4sim.Action{Type: p4sim.ActForward, Port: 2})
	e.Subscribe(EqType(wire.MsgMem), p4sim.Action{Type: p4sim.ActForward, Port: 9})
	tb := filterTable(t)
	if err := e.CompileTo(tb); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("table entries = %d", tb.Len())
	}
	// The more specific subscription must win for the exact object.
	act, ok := tb.Lookup(&wire.Header{Type: wire.MsgMem, Object: id})
	if !ok || act.Port != 2 {
		t.Fatalf("specific lookup = %+v %v", act, ok)
	}
	act, ok = tb.Lookup(&wire.Header{Type: wire.MsgMem, Object: gen.New()})
	if !ok || act.Port != 9 {
		t.Fatalf("general lookup = %+v %v", act, ok)
	}
	if _, ok := tb.Lookup(&wire.Header{Type: wire.MsgAck}); ok {
		t.Fatal("lookup matched unsubscribed type")
	}
}

func TestCompileOrProducesMultipleEntries(t *testing.T) {
	e := NewEngine()
	e.Subscribe(Or(EqType(wire.MsgMem), EqType(wire.MsgAck)),
		p4sim.Action{Type: p4sim.ActForward, Port: 3})
	tb := filterTable(t)
	if err := e.CompileTo(tb); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("entries = %d, want 2 (one per disjunct)", tb.Len())
	}
	for _, typ := range []wire.MsgType{wire.MsgMem, wire.MsgAck} {
		if _, ok := tb.Lookup(&wire.Header{Type: typ}); !ok {
			t.Fatalf("miss for %v", typ)
		}
	}
}

func TestCompileMergesOverlappingMasks(t *testing.T) {
	// Two mask atoms on the same field that agree on overlap.
	p := And(
		Mask(wire.FieldFlags, wire.ValueOf(0b01), wire.ValueOf(0b01)),
		Mask(wire.FieldFlags, wire.ValueOf(0b10), wire.ValueOf(0b10)),
	)
	e := NewEngine()
	if _, err := e.Subscribe(p, p4sim.Action{Type: p4sim.ActForward, Port: 1}); err != nil {
		t.Fatal(err)
	}
	tb := filterTable(t)
	if err := e.CompileTo(tb); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Lookup(&wire.Header{Flags: 0b11}); !ok {
		t.Fatal("merged mask miss")
	}
	if _, ok := tb.Lookup(&wire.Header{Flags: 0b01}); ok {
		t.Fatal("merged mask matched partial flags")
	}
}

func TestDistributionOverOr(t *testing.T) {
	// (A || B) && C → 2 conjunctions.
	id := gen.New()
	p := And(Or(EqType(wire.MsgMem), EqType(wire.MsgRPC)), Eq(wire.FieldObject, wire.ValueOfID(id)))
	e := NewEngine()
	e.Subscribe(p, p4sim.Action{Type: p4sim.ActForward, Port: 5})
	tb := filterTable(t)
	if err := e.CompileTo(tb); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("entries = %d", tb.Len())
	}
	if _, ok := tb.Lookup(&wire.Header{Type: wire.MsgRPC, Object: id}); !ok {
		t.Fatal("distributed term miss")
	}
	if _, ok := tb.Lookup(&wire.Header{Type: wire.MsgRPC, Object: gen.New()}); ok {
		t.Fatal("object constraint lost in distribution")
	}
}

func TestPropertyCompiledMatchesEval(t *testing.T) {
	// Table lookup must agree with software Eval on random headers.
	f := func(typ uint8, flags uint16, src, dst, hi, lo uint64) bool {
		h := &wire.Header{
			Type: wire.MsgType(typ % 10), Flags: wire.Flags(flags),
			Src: wire.StationID(src % 8), Dst: wire.StationID(dst % 8),
			Object: oid.ID{Hi: hi % 4, Lo: lo % 4},
		}
		e := NewEngine()
		pred := Or(
			And(EqType(wire.MsgMem), Eq(wire.FieldSrc, wire.ValueOf(src%8))),
			Eq(wire.FieldObject, wire.ValueOfID(oid.ID{Hi: 1, Lo: 2})),
		)
		e.Subscribe(pred, p4sim.Action{Type: p4sim.ActForward, Port: 1})
		tb, err := NewFilterTable("p", p4sim.TableConfig{MemoryBytes: -1})
		if err != nil {
			return false
		}
		if err := e.CompileTo(tb); err != nil {
			return false
		}
		_, hwHit := tb.Lookup(h)
		return hwHit == pred.Eval(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPredStrings(t *testing.T) {
	ps := []Pred{
		Eq(wire.FieldSrc, wire.ValueOf(1)),
		Mask(wire.FieldFlags, wire.ValueOf(1), wire.ValueOf(1)),
		Prefix(wire.FieldObject, wire.ValueOfID(gen.New()), 16),
		And(True(), True()),
		Or(True()),
	}
	for _, p := range ps {
		if p.String() == "" {
			t.Fatalf("empty String for %T", p)
		}
	}
}
