package p4sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/oid"
	"repro/internal/wire"
)

// linearTable is the reference the flow cache, the rule list and the
// exact map are checked against: entries in one slice sorted by
// priority (insert order among equals), a lookup that scans it front to
// back on every call and compares each component by its match kind
// rather than by a mask, an insert into an all-exact table that first
// removes an identical match, and the recency ring written out as a
// slice. Entries are named by the id the test gives them (the real
// entry's Action.Port).
type linearTable struct {
	keys     []Key
	allExact bool
	policy   EvictionPolicy
	capacity int // -1: unlimited

	scan    []*refEntry // match order
	ring    []*refEntry // recency ring, front (most recent) to back
	evicted []int
}

type refEntry struct {
	match []KeyValue
	prio  int
	id    int
}

func (r *linearTable) ringRemove(e *refEntry) {
	i := slices.Index(r.ring, e)
	r.ring = slices.Delete(r.ring, i, i+1)
}

func (r *linearTable) remove(e *refEntry) {
	if r.policy != EvictNone {
		r.ringRemove(e)
	}
	i := slices.Index(r.scan, e)
	r.scan = slices.Delete(r.scan, i, i+1)
}

func (r *linearTable) victim() *refEntry {
	if len(r.ring) == 0 {
		return nil
	}
	return r.ring[len(r.ring)-1]
}

func (r *linearTable) valid(match []KeyValue) bool { return len(match) == len(r.keys) }

func (r *linearTable) insert(e *refEntry) bool {
	if r.allExact {
		r.delete(e.match)
	}
	if r.capacity >= 0 && len(r.scan) >= r.capacity {
		if r.policy == EvictNone {
			return false
		}
		v := r.victim()
		if v == nil {
			return false
		}
		r.remove(v)
		r.evicted = append(r.evicted, v.id)
	}
	i := sort.Search(len(r.scan), func(i int) bool { return r.scan[i].prio < e.prio })
	r.scan = slices.Insert(r.scan, i, e)
	if r.policy != EvictNone {
		r.ring = slices.Insert(r.ring, 0, e)
	}
	return true
}

func (r *linearTable) delete(match []KeyValue) bool {
	for _, e := range r.scan {
		if slices.Equal(e.match, match) {
			r.remove(e)
			return true
		}
	}
	return false
}

func (r *linearTable) clear() { r.scan, r.ring = nil, nil }

func (r *linearTable) lookup(h *wire.Header) (int, bool) {
	for _, e := range r.scan {
		if !r.matches(e, h) {
			continue
		}
		if r.policy == EvictLRU {
			r.ringRemove(e)
			r.ring = slices.Insert(r.ring, 0, e)
		}
		return e.id, true
	}
	return 0, false
}

func (r *linearTable) matches(e *refEntry, h *wire.Header) bool {
	for i, k := range r.keys {
		v, _ := h.Extract(k.Field)
		kv := e.match[i]
		switch k.Kind {
		case MatchExact:
			if kv.Value != v {
				return false
			}
		case MatchTernary:
			if (v.Hi&kv.Mask.Hi) != (kv.Value.Hi&kv.Mask.Hi) ||
				(v.Lo&kv.Mask.Lo) != (kv.Value.Lo&kv.Mask.Lo) {
				return false
			}
		}
	}
	return true
}

// ringState renders the real table's recency ring the way
// linearTable.ringState renders the reference's: ids front to back.
func (t *Table) ringState() string {
	var s []byte
	if t.ring.next != nil {
		for e := t.ring.next; e != &t.ring; e = e.next {
			s = fmt.Appendf(s, "%d ", e.Action.Port)
		}
	}
	return string(s)
}

func (r *linearTable) ringState() string {
	var s []byte
	for _, e := range r.ring {
		s = fmt.Appendf(s, "%d ", e.id)
	}
	return string(s)
}

// opStream doles out the bytes that choose a run's schema and
// operations; it reads as zeros once data runs out.
type opStream struct {
	data []byte
	pos  int
}

func (o *opStream) byte() byte {
	if o.pos >= len(o.data) {
		o.pos++
		return 0
	}
	o.pos++
	return o.data[o.pos-1]
}

func (o *opStream) done() bool { return o.pos >= len(o.data) }

// poolValue picks one of a few values that fit a width-bit field, so
// that entries and headers collide often: the low two bits, the
// field's top bit and, on a 128-bit field, bits on both sides of the
// Hi/Lo seam.
func poolValue(b byte, width int) wire.Value {
	v := wire.Value{Lo: uint64(b & 3)}
	top := uint(min(width, 64) - 1)
	v.Lo |= uint64(b>>2&1) << top
	if width > 64 {
		v.Lo |= uint64(b>>3&1) << 63
		v.Hi = uint64(b>>4&1) | uint64(b>>5&1)<<63
	}
	return v
}

func poolMask(b byte, width int) wire.Value {
	all := wire.Value{Lo: ^uint64(0) >> uint(64-min(width, 64))}
	if width > 64 {
		all.Hi = ^uint64(0)
	}
	switch b % 6 {
	case 0:
		return wire.Value{}
	case 1:
		return all
	case 2:
		return wire.Value{Lo: 1}
	case 3:
		return wire.Value{Hi: all.Hi &^ 1, Lo: all.Lo &^ 3}
	case 4:
		// A prefix ending in Lo's top byte: a /72 on a 128-bit field,
		// a /8 on a 64-bit one.
		return wire.Value{Hi: all.Hi, Lo: all.Lo & (0xFF << 56)}
	}
	return poolValue(b>>3, width)
}

var indexFields = []wire.Field{wire.FieldType, wire.FieldFlags, wire.FieldSrc,
	wire.FieldDst, wire.FieldObject, wire.FieldSeq}

// checkTableAgainstScan interprets data as a schema, a capacity, an
// eviction policy and a run of Insert/Delete/Clear/Lookup calls, makes
// them on a Table and on the linear-scan reference, and fails on the
// first difference in a result, an eviction, the entry count or the
// recency ring (which is where a touch of the wrong entry shows). Some
// lookups repeat a recent header, so the flow cache answers them and a
// stale slot shows as a wrong result. A schema of one exact key runs
// the value-keyed map; every other schema, all-exact ones included, the
// rule list, whose order and care key are checked after every step.
func checkTableAgainstScan(t *testing.T, data []byte) {
	in := &opStream{data: data}
	keys := make([]Key, 1+in.byte()%6)
	for i := range keys {
		b := in.byte()
		keys[i] = Key{Field: indexFields[b%6], Kind: MatchKind(b / 6 % 2)}
	}
	policy := EvictionPolicy(in.byte() % 2)
	tbl, err := NewTable("fuzz", keys, TableConfig{MemoryBytes: -1, Eviction: policy})
	if err != nil {
		t.Fatal(err)
	}
	if b := in.byte(); b%4 != 0 {
		tbl.capacity = 1 + int(b/4%8)
	}
	allExact := !slices.ContainsFunc(keys, func(k Key) bool { return k.Kind != MatchExact })
	if valueKeyed := tbl.exact != nil; valueKeyed != (allExact && len(keys) == 1) {
		t.Fatalf("schema %v: value-keyed map %v", keys, valueKeyed)
	}
	ref := &linearTable{keys: keys, allExact: allExact, policy: policy, capacity: tbl.capacity}
	// An Insert's eviction victim is the entry held before it and gone
	// after, other than the one an all-exact Insert replaces.
	var evicted []int
	held := func() map[int][]KeyValue {
		ids := make(map[int][]KeyValue, tbl.Len())
		for _, e := range tbl.exact {
			ids[e.Action.Port] = e.Match
		}
		for _, e := range tbl.rules {
			ids[e.Action.Port] = e.Match
		}
		return ids
	}

	match := func() []KeyValue {
		m := make([]KeyValue, len(keys))
		for i, k := range keys {
			w := k.Field.Width()
			m[i].Value = poolValue(in.byte(), w)
			if k.Kind == MatchTernary {
				m[i].Mask = poolMask(in.byte(), w)
			}
		}
		return m
	}
	var installed [][]KeyValue // every match ever inserted: what Delete aims at
	var recent []wire.Header   // the last few lookup headers, for flow-cache hits
	nextID := 0
	for step := 0; !in.done(); step++ {
		var what string
		lookup := func(h wire.Header) {
			act, ok := tbl.Lookup(&h)
			if id, want := ref.lookup(&h); ok != want || ok && act.Port != id {
				t.Fatalf("step %d: %s = entry %d %v, reference entry %d %v", step, what, act.Port, ok, id, want)
			}
		}
		switch op := in.byte() % 16; {
		case op < 8:
			m := match()
			prio := int(in.byte() % 4)
			nextID++
			what = fmt.Sprintf("Insert(%v, prio %d) as %d", m, prio, nextID)
			before := held()
			err := tbl.Insert(Entry{Match: m, Priority: prio, Action: Action{Type: ActForward, Port: nextID}})
			after := held()
			var gone []int
			for id, bm := range before {
				if _, ok := after[id]; !ok && !(allExact && slices.Equal(bm, m)) {
					gone = append(gone, id)
				}
			}
			slices.Sort(gone)
			evicted = append(evicted, gone...)
			if !ref.valid(m) {
				if !errors.Is(err, ErrBadEntry) {
					t.Fatalf("step %d: %s = %v, want ErrBadEntry", step, what, err)
				}
				break
			}
			if ok := ref.insert(&refEntry{match: m, prio: prio, id: nextID}); ok != (err == nil) ||
				err != nil && !errors.Is(err, ErrTableFull) {
				t.Fatalf("step %d: %s = %v, reference accepted=%v", step, what, err, ok)
			}
			installed = append(installed, m)
		case op < 10:
			m := match()
			if len(installed) > 0 && in.byte()%4 != 0 {
				m = installed[int(in.byte())%len(installed)]
			}
			what = fmt.Sprintf("Delete(%v)", m)
			if got, want := tbl.Delete(m), ref.delete(m); got != want {
				t.Fatalf("step %d: %s = %v, reference %v", step, what, got, want)
			}
		case op == 10 && in.byte()%4 == 0:
			what = "Clear()"
			tbl.Clear()
			ref.clear()
		case op >= 13 && len(recent) > 0:
			// Ask again what was asked lately, with whatever Insert,
			// Delete, Clear or eviction came in between.
			h := recent[int(in.byte())%len(recent)]
			what = fmt.Sprintf("repeated Lookup(%+v)", h)
			lookup(h)
		default:
			var h wire.Header
			h.Type = wire.MsgType(poolValue(in.byte(), 8).Lo)
			h.Flags = wire.Flags(poolValue(in.byte(), 16).Lo)
			h.Src = wire.StationID(poolValue(in.byte(), 64).Lo)
			h.Dst = wire.StationID(poolValue(in.byte(), 64).Lo)
			obj := poolValue(in.byte(), 128)
			h.Object = oid.ID{Hi: obj.Hi, Lo: obj.Lo}
			h.Seq = poolValue(in.byte(), 64).Lo
			what = fmt.Sprintf("Lookup(%+v)", h)
			lookup(h)
			if recent = append(recent, h); len(recent) > 4 {
				recent = recent[1:]
			}
		}
		if tbl.Len() != len(ref.scan) {
			t.Fatalf("step %d: after %s Len = %d, reference %d", step, what, tbl.Len(), len(ref.scan))
		}
		if !slices.Equal(evicted, ref.evicted) {
			t.Fatalf("step %d: after %s evicted %v, reference %v", step, what, evicted, ref.evicted)
		}
		if got, want := tbl.ringState(), ref.ringState(); got != want {
			t.Fatalf("step %d: after %s ring is %q, reference %q", step, what, got, want)
		}
		if tbl.exact == nil {
			checkRules(t, tbl, ref, step, what)
		}
	}
}

// checkRules fails unless tbl's rules are in match order, which is the
// reference's scan order, and care covers every rule's masks: a header
// bit outside care that some rule compares would let two headers share
// a flow-cache slot that the rule tells apart.
func checkRules(t *testing.T, tbl *Table, ref *linearTable, step int, what string) {
	t.Helper()
	var got, want []int
	for _, e := range tbl.rules {
		got = append(got, e.Action.Port)
	}
	for _, e := range ref.scan {
		want = append(want, e.id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: after %s rules are %v, reference order %v", step, what, got, want)
	}
	for _, e := range tbl.rules {
		for j, kv := range e.Match {
			m, c := componentMask(tbl.keys[j], kv), tbl.care[j]
			if m.Hi&^c.Hi != 0 || m.Lo&^c.Lo != 0 || m != (wire.Value{}) && !slices.Contains(tbl.careIdx, j) {
				t.Fatalf("step %d: after %s care %v at %v misses rule %d's mask %v on key %d", step, what, c, tbl.careIdx, e.Action.Port, m, j)
			}
		}
	}
}

// TestTableMatchesLinearScan runs the equivalence check over random
// operation streams. Every third schema is all-exact, of one key (the
// value-keyed map) or two (the rule list with full masks), so exact
// replacement, Delete and LRU eviction victims are compared on
// both.
func TestTableMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		data := make([]byte, 64+rng.Intn(2048))
		rng.Read(data)
		if i%3 == 0 {
			data[0] = byte(i / 3 % 2)               // one key or two
			data[1], data[2] = data[1]%6, data[2]%6 // any field, MatchExact
		}
		checkTableAgainstScan(t, data)
	}
}

// FuzzTable is the same check with the operation stream in the fuzzer's
// hands.
func FuzzTable(f *testing.F) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{16, 200, 1500} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(checkTableAgainstScan)
}
