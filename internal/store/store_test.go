package store

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/wire"
)

var gen = oid.NewSeededGenerator(123)

func mkObj(t testing.TB, size int) *object.Object {
	t.Helper()
	o, err := object.New(gen.New(), size, 4)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPutGet(t *testing.T) {
	s := New(0)
	o := mkObj(t, 4096)
	if err := s.Put(o, 1, true); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(o.ID())
	if !ok {
		t.Fatal("Lookup missed a held object")
	}
	if got.Obj != o {
		t.Fatalf("Lookup returned wrong object")
	}
	if !s.Contains(o.ID()) {
		t.Fatal("Contains = false")
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d", s.Len())
	}
}

func TestGetMissing(t *testing.T) {
	s := New(0)
	if e, ok := s.Lookup(gen.New()); ok || e != nil {
		t.Fatalf("Lookup missing: %v, %v", e, ok)
	}
	if e, ok := s.Peek(gen.New()); ok || e != nil {
		t.Fatalf("Peek missing: %v, %v", e, ok)
	}
	if _, err := s.BumpVersion(gen.New()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("BumpVersion missing: %v", err)
	}
	if err := s.Delete(gen.New()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing: %v", err)
	}
	if err := s.Put(nil, 0, false); err == nil {
		t.Fatal("Put(nil) succeeded")
	}
}

func TestVersioning(t *testing.T) {
	s := New(0)
	o := mkObj(t, 1024)
	s.Put(o, 5, true)
	e, ok := s.Peek(o.ID())
	if !ok || e.Version != 5 {
		t.Fatalf("Version = %+v, %v", e, ok)
	}
	nv, err := s.BumpVersion(o.ID())
	if err != nil || nv != 6 || e.Version != 6 {
		t.Fatalf("BumpVersion = %d, %v; entry at %d", nv, err, e.Version)
	}
}

func TestReplaceKeepsFreshestVersion(t *testing.T) {
	s := New(0)
	o := mkObj(t, 1024)
	s.Put(o, 9, false)
	// Re-put an older copy: version must not regress.
	clone, _ := object.FromBytes(o.ID(), o.CloneBytes())
	s.Put(clone, 3, false)
	if e, _ := s.Peek(o.ID()); e.Version != 9 {
		t.Fatalf("version regressed to %d", e.Version)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after replace", s.Len())
	}
}

func TestReplaceKeepsHome(t *testing.T) {
	s := New(0)
	o := mkObj(t, 1024)
	s.Put(o, 1, true)
	clone, _ := object.FromBytes(o.ID(), o.CloneBytes())
	s.Put(clone, 2, false)
	e, ok := s.Peek(o.ID())
	if !ok {
		t.Fatal("entry lost on replace")
	}
	if !e.Home {
		t.Fatal("home flag lost on replace")
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(3 * 1024)
	a, b, c := mkObj(t, 1024), mkObj(t, 1024), mkObj(t, 1024)
	s.Put(a, 1, false)
	s.Put(b, 1, false)
	s.Put(c, 1, false)
	// Touch a so b is the LRU victim.
	s.Lookup(a.ID())
	d := mkObj(t, 1024)
	s.Put(d, 1, false)
	if s.Contains(b.ID()) {
		t.Fatal("LRU victim b not evicted")
	}
	if !s.Contains(a.ID()) || !s.Contains(c.ID()) || !s.Contains(d.ID()) {
		t.Fatal("wrong object evicted")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d after one eviction", s.Len())
	}
}

func TestPinnedNotEvicted(t *testing.T) {
	s := New(2 * 1024)
	home := mkObj(t, 1024)
	s.Put(home, 1, true) // home => pinned
	cached := mkObj(t, 1024)
	s.Put(cached, 1, false)
	extra := mkObj(t, 1024)
	s.Put(extra, 1, false)
	if !s.Contains(home.ID()) {
		t.Fatal("pinned home object evicted")
	}
	if s.Contains(cached.ID()) {
		t.Fatal("unpinned object survived over budget")
	}
}

func TestOnlyPinnedOverBudget(t *testing.T) {
	// If only pinned objects remain, the store may exceed budget but
	// must not livelock or evict them.
	s := New(1024)
	a := mkObj(t, 1024)
	b := mkObj(t, 1024)
	s.Put(a, 1, true)
	if err := s.Put(b, 1, true); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(a.ID()) || !s.Contains(b.ID()) {
		t.Fatal("pinned object missing")
	}
}

func TestTooLarge(t *testing.T) {
	s := New(512)
	o := mkObj(t, 1024)
	if err := s.Put(o, 1, false); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put oversized: %v", err)
	}
}

func TestInvalidate(t *testing.T) {
	s := New(0)
	home := mkObj(t, 512)
	cached := mkObj(t, 512)
	s.Put(home, 1, true)
	s.Put(cached, 1, false)
	if err := s.Invalidate(cached.ID()); err != nil {
		t.Fatal(err)
	}
	if s.Contains(cached.ID()) {
		t.Fatal("invalidated copy still present")
	}
	if err := s.Invalidate(home.ID()); err == nil {
		t.Fatal("Invalidate dropped the home copy")
	}
	// Idempotent on missing.
	if err := s.Invalidate(gen.New()); err != nil {
		t.Fatalf("Invalidate missing: %v", err)
	}
}

func TestDeleteAccounting(t *testing.T) {
	// A deleted object gives its bytes back: the next one of its size
	// fits without evicting the cached neighbour.
	s := New(3 * 1024)
	kept, o := mkObj(t, 1024), mkObj(t, 2048)
	s.Put(kept, 1, false)
	s.Put(o, 1, false)
	if err := s.Delete(o.ID()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("after delete: len=%d", s.Len())
	}
	s.Put(mkObj(t, 2048), 1, false)
	if !s.Contains(kept.ID()) {
		t.Fatal("Delete left its bytes on the budget: the neighbour was evicted")
	}
}

func TestListSorted(t *testing.T) {
	s := New(0)
	for i := 0; i < 20; i++ {
		s.Put(mkObj(t, 256), 1, i%2 == 0)
	}
	ids := s.List()
	if len(ids) != 20 {
		t.Fatalf("List len = %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if !ids[i-1].Less(ids[i]) {
			t.Fatal("List not sorted")
		}
	}
	homes := s.HomeList()
	if len(homes) != 10 {
		t.Fatalf("HomeList len = %d", len(homes))
	}
}

func TestReadersACL(t *testing.T) {
	s := New(0)
	o := mkObj(t, 1024)
	s.Put(o, 1, true)
	e, _ := s.Peek(o.ID())
	if !e.CanRead(42) {
		t.Fatal("default should be world-readable")
	}
	if err := s.SetReaders(o.ID(), []wire.StationID{7, 9}); err != nil {
		t.Fatal(err)
	}
	e, _ = s.Peek(o.ID())
	if !e.CanRead(7) || !e.CanRead(9) || e.CanRead(42) {
		t.Fatal("ACL not enforced")
	}
	if err := s.SetReaders(o.ID(), nil); err != nil {
		t.Fatal(err)
	}
	e, _ = s.Peek(o.ID())
	if !e.CanRead(42) {
		t.Fatal("nil did not restore world-readability")
	}
	if err := s.SetReaders(gen.New(), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetReaders missing: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New(64 * 1024)
	var wg sync.WaitGroup
	ids := make([]oid.ID, 16)
	for i := range ids {
		o := mkObj(t, 1024)
		ids[i] = o.ID()
		s.Put(o, 1, false)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(g+i)%len(ids)]
				s.Lookup(id)
				s.Contains(id)
				s.Peek(id)
				if i%50 == 0 {
					o := mkObj(t, 512)
					s.Put(o, 1, false)
					s.Delete(o.ID())
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkStoreLookup(b *testing.B) {
	s := New(0)
	o := mkObj(b, 4096)
	s.Put(o, 1, false)
	id := o.ID()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(id); !ok {
			b.Fatal("miss")
		}
	}
}

// TestPutOnHeldIDUpdatesInPlace: re-installing an ID the store holds (a
// release applied at the home, a refetched cached copy) keeps the
// entry, its readers and its byte accounting, allocates nothing, and
// counts as a use.
func TestPutOnHeldIDUpdatesInPlace(t *testing.T) {
	a, b := mkObj(t, 4096), mkObj(t, 4096)
	s := New(3 * 4096)
	for _, o := range []*object.Object{a, b} {
		if err := s.Put(o, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetReaders(a.ID(), []wire.StationID{7}); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Peek(a.ID())
	a2, err := object.FromBytes(a.ID(), a.CloneBytes())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { s.Put(a2, 5, false) }); n != 0 {
		t.Fatalf("Put on a held ID allocates %v", n)
	}
	after, _ := s.Peek(a.ID())
	if after != before || after.Obj != a2 || after.Version != 5 || !after.CanRead(7) || after.CanRead(8) {
		t.Fatalf("entry after re-Put: same=%v %+v", after == before, after)
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d", s.Len())
	}
	// a was just used, so b is the one a third and fourth object evict.
	for i := 0; i < 2; i++ {
		if err := s.Put(mkObj(t, 4096), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(a.ID()) || s.Contains(b.ID()) {
		t.Fatalf("after eviction: holds a=%v b=%v, want a only", s.Contains(a.ID()), s.Contains(b.ID()))
	}
	// Becoming the home takes the entry out of the ring.
	if err := s.Put(a2, 5, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(mkObj(t, 4096), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(a.ID()) || !s.IsHome(a.ID()) {
		t.Fatal("a home copy was evicted")
	}
}

// TestAccessorContract pins what each read accessor does to the
// eviction order, observed the only way a caller can: by which entry a
// full store drops next. The store holds a home copy h and two cached
// copies, old then young (so old is the next victim); the access under
// test runs on old, a third cached object arrives, and exactly one of
// old and young is gone.
func TestAccessorContract(t *testing.T) {
	for _, tc := range []struct {
		name    string
		access  func(s *Store, old oid.ID)
		touches bool
	}{
		{"nothing", func(*Store, oid.ID) {}, false},
		{"Lookup", func(s *Store, id oid.ID) { s.Lookup(id) }, true},
		{"Peek", func(s *Store, id oid.ID) { s.Peek(id) }, false},
		{"Contains", func(s *Store, id oid.ID) { s.Contains(id) }, false},
		{"IsHome", func(s *Store, id oid.ID) { s.IsHome(id) }, false},
		{"Put on the held ID", func(s *Store, id oid.ID) {
			e, _ := s.Peek(id)
			s.Put(e.Obj, 1, false) // an older version than the one held
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(3 * 1024)
			h, old, young := mkObj(t, 1024), mkObj(t, 1024), mkObj(t, 1024)
			s.Put(h, 1, true)
			s.Put(old, 7, false)
			s.Put(young, 1, false)
			s.Lookup(h.ID()) // a home copy has no place in the order to move
			tc.access(s, old.ID())
			s.Put(mkObj(t, 1024), 1, false)
			if !s.IsHome(h.ID()) {
				t.Fatal("the home copy was evicted")
			}
			if s.Contains(old.ID()) != tc.touches || s.Contains(young.ID()) == tc.touches {
				t.Fatalf("after the access: holds old=%v young=%v, want old=%v young=%v",
					s.Contains(old.ID()), s.Contains(young.ID()), tc.touches, !tc.touches)
			}
			if e, ok := s.Peek(old.ID()); ok && e.Version != 7 {
				t.Fatalf("old is at version %d, want the higher one, 7", e.Version)
			}
		})
	}
}
