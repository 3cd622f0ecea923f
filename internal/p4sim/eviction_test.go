package p4sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/oid"
	"repro/internal/wire"
)

// tinyExactTable builds an exact-match object table sized to hold
// exactly capacity entries (entryCost for a 128-bit exact key is 32
// bytes; memory = capacity*cost/fill rounded up).
func tinyExactTable(t *testing.T, capacity int, policy EvictionPolicy) *Table {
	t.Helper()
	tbl, err := NewTable("test/obj", []Key{{Field: wire.FieldObject, Kind: MatchExact}},
		TableConfig{MemoryBytes: 1, Eviction: policy})
	if err != nil {
		t.Fatal(err)
	}
	mem := int(float64(capacity*tbl.EntryCost())/fillMultiWord) + tbl.EntryCost()
	tbl, err = NewTable("test/obj", []Key{{Field: wire.FieldObject, Kind: MatchExact}},
		TableConfig{MemoryBytes: mem, Eviction: policy})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Capacity(); got < capacity || got > capacity+1 {
		t.Fatalf("capacity = %d, want ~%d", got, capacity)
	}
	return tbl
}

func objEntry(n uint64, port int) Entry {
	return Entry{
		Match:  []KeyValue{{Value: wire.Value{Lo: n}}},
		Action: Action{Type: ActForward, Port: port},
	}
}

func lookupObj(t *Table, n uint64) (Action, bool) {
	return t.Lookup(&wire.Header{
		Flags:  wire.FlagRouteOnObject,
		Object: oid.ID{Lo: n},
	})
}

func TestEvictNoneStillRejectsAtCapacity(t *testing.T) {
	tbl := tinyExactTable(t, 3, EvictNone)
	cap := tbl.Capacity()
	for i := 0; i < cap; i++ {
		if err := tbl.Insert(objEntry(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	err := tbl.Insert(objEntry(999, 0))
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
}

// TestLRUEvictionOrdering drives a known access pattern and checks the
// exact victim sequence.
func TestLRUEvictionOrdering(t *testing.T) {
	tbl := tinyExactTable(t, 3, EvictLRU)
	cap := tbl.Capacity()
	// Fill to capacity: 1, 2, ..., cap (1 is now least recent).
	for i := 0; i < cap; i++ {
		if err := tbl.Insert(objEntry(uint64(i+1), i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := lookupObj(tbl, 1); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	if err := tbl.Insert(objEntry(100, 9)); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookupObj(tbl, 2); ok {
		t.Fatal("entry 2 should have been the LRU victim")
	}
	if _, ok := lookupObj(tbl, 1); !ok {
		t.Fatal("recently-touched entry 1 was evicted")
	}
	if tbl.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", tbl.Evictions())
	}
	// Insert again: victim must now be the least recently touched
	// survivor. Access order so far (most→least recent): 1, 100, then
	// 4..cap, 3. Touch nothing; next victim is 3.
	if err := tbl.Insert(objEntry(101, 9)); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookupObj(tbl, 3); ok {
		t.Fatal("entry 3 should have been the second LRU victim")
	}
	if tbl.Len() != cap {
		t.Fatalf("Len = %d, want %d (evict keeps table at capacity)", tbl.Len(), cap)
	}
}

// TestEvictionScanTable checks LRU over a ternary scan table: eviction
// must splice the victim out of the priority-sorted slice.
func TestEvictionScanTable(t *testing.T) {
	tbl, err := NewTable("test/tern", []Key{{Field: wire.FieldObject, Kind: MatchTernary}},
		TableConfig{MemoryBytes: 200, Eviction: EvictLRU})
	if err != nil {
		t.Fatal(err)
	}
	cap := tbl.Capacity()
	if cap < 2 {
		t.Fatalf("capacity = %d, want >= 2", cap)
	}
	full := wire.Value{Hi: ^uint64(0), Lo: ^uint64(0)}
	for i := 0; i < cap; i++ {
		err := tbl.Insert(Entry{
			Match:    []KeyValue{{Value: wire.Value{Lo: uint64(i + 1)}, Mask: full}},
			Priority: i,
			Action:   Action{Type: ActForward, Port: i},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Touch everything except entry 1.
	for i := 1; i < cap; i++ {
		if _, ok := lookupObj(tbl, uint64(i+1)); !ok {
			t.Fatalf("entry %d missing", i+1)
		}
	}
	if err := tbl.Insert(Entry{
		Match:    []KeyValue{{Value: wire.Value{Lo: 100}, Mask: full}},
		Priority: 100,
		Action:   Action{Type: ActForward, Port: 9},
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookupObj(tbl, 1); ok {
		t.Fatal("entry 1 should have been evicted from the scan table")
	}
	if got, ok := lookupObj(tbl, 100); !ok || got.Port != 9 {
		t.Fatalf("new entry lookup = %v %v, want hit on port 9", got, ok)
	}
	if tbl.Len() != cap {
		t.Fatalf("Len = %d, want %d", tbl.Len(), cap)
	}
}

// TestEvictionDeleteInteraction: deleting an entry must unlink it from
// the recency ring so a later eviction never picks a dead entry.
func TestEvictionDeleteInteraction(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRU} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			tbl := tinyExactTable(t, 3, policy)
			cap := tbl.Capacity()
			for i := 0; i < cap; i++ {
				if err := tbl.Insert(objEntry(uint64(i+1), i)); err != nil {
					t.Fatal(err)
				}
			}
			if !tbl.Delete([]KeyValue{{Value: wire.Value{Lo: 1}}}) {
				t.Fatal("Delete(1) failed")
			}
			// Two inserts: the first fits in the freed slot, the second
			// must evict a live entry without panicking.
			if err := tbl.Insert(objEntry(100, 0)); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Insert(objEntry(101, 0)); err != nil {
				t.Fatal(err)
			}
			if tbl.Len() != cap {
				t.Fatalf("Len = %d, want %d", tbl.Len(), cap)
			}
		})
	}
}
