package prefetch

import (
	"fmt"
	"testing"

	"repro/internal/future"
	"repro/internal/object"
	"repro/internal/oid"
)

var gen = oid.NewSeededGenerator(29)

// fakeFetcher resolves objects from a map, synchronously.
type fakeFetcher struct {
	objects map[oid.ID]*object.Object
	local   map[oid.ID]bool
	fetched []oid.ID
}

func newFake() *fakeFetcher {
	return &fakeFetcher{
		objects: make(map[oid.ID]*object.Object),
		local:   make(map[oid.ID]bool),
	}
}

func (f *fakeFetcher) AcquireShared(id oid.ID) *future.Future[*object.Object] {
	f.fetched = append(f.fetched, id)
	fut := new(future.Future[*object.Object])
	o, ok := f.objects[id]
	if !ok {
		fut.Resolve(nil, fmt.Errorf("no such object"))
		return fut
	}
	f.local[id] = true
	fut.Resolve(o, nil)
	return fut
}

func (f *fakeFetcher) has(id oid.ID) bool { return f.local[id] }

// mkObj creates an object referencing the given targets.
func mkObj(t *testing.T, size int, refs ...oid.ID) *object.Object {
	t.Helper()
	o, err := object.New(gen.New(), size, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if _, err := o.AddFOT(r, object.FlagRead); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func TestPrefetchDirectReferences(t *testing.T) {
	f := newFake()
	childA := mkObj(t, 4096)
	childB := mkObj(t, 4096)
	f.objects[childA.ID()] = childA
	f.objects[childB.ID()] = childB
	root := mkObj(t, 4096, childA.ID(), childB.ID())

	p := New(f, f.has, Config{})
	p.OnFetch(root)
	if len(f.fetched) != 2 {
		t.Fatalf("fetched %d objects", len(f.fetched))
	}
	c := p.Counters()
	if c.Triggers != 1 || c.Issued != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPrefetchSkipsLocal(t *testing.T) {
	f := newFake()
	child := mkObj(t, 4096)
	f.objects[child.ID()] = child
	f.local[child.ID()] = true
	root := mkObj(t, 4096, child.ID())

	p := New(f, f.has, Config{})
	p.OnFetch(root)
	if len(f.fetched) != 0 {
		t.Fatal("prefetched an already-local object")
	}
	if p.Counters().AlreadyLocal != 1 {
		t.Fatalf("counters = %+v", p.Counters())
	}
}

func TestDepthLimit(t *testing.T) {
	f := newFake()
	grandchild := mkObj(t, 4096)
	child := mkObj(t, 4096, grandchild.ID())
	f.objects[grandchild.ID()] = grandchild
	f.objects[child.ID()] = child
	root := mkObj(t, 4096, child.ID())

	// Depth 1: only the child.
	p := New(f, f.has, Config{MaxDepth: 1})
	p.OnFetch(root)
	if len(f.fetched) != 1 {
		t.Fatalf("depth 1 fetched %d", len(f.fetched))
	}

	// Depth 2: child then grandchild.
	f2 := newFake()
	f2.objects[grandchild.ID()] = grandchild
	f2.objects[child.ID()] = child
	p2 := New(f2, f2.has, Config{MaxDepth: 2})
	p2.OnFetch(root)
	if len(f2.fetched) != 2 {
		t.Fatalf("depth 2 fetched %d", len(f2.fetched))
	}
}

func TestObjectCountBudget(t *testing.T) {
	f := newFake()
	var refs []oid.ID
	for i := 0; i < 10; i++ {
		c := mkObj(t, 1024)
		f.objects[c.ID()] = c
		refs = append(refs, c.ID())
	}
	root := mkObj(t, 4096, refs...)
	p := New(f, f.has, Config{MaxObjects: 3})
	p.OnFetch(root)
	if len(f.fetched) != 3 {
		t.Fatalf("fetched %d, want 3", len(f.fetched))
	}
	if p.Counters().BudgetStops == 0 {
		t.Fatal("no budget stop recorded")
	}
}

func TestByteBudget(t *testing.T) {
	f := newFake()
	// Chain: root → c1 → c2; each child is 4096 bytes, budget 4096 so
	// the second-level walk is cut off after c1 consumes it.
	c2 := mkObj(t, 4096)
	c1 := mkObj(t, 4096, c2.ID())
	f.objects[c1.ID()] = c1
	f.objects[c2.ID()] = c2
	root := mkObj(t, 4096, c1.ID())
	p := New(f, f.has, Config{MaxDepth: 3, BudgetBytes: 4096})
	p.OnFetch(root)
	if len(f.fetched) != 1 {
		t.Fatalf("fetched %d, want 1 (budget exhausted)", len(f.fetched))
	}
}

func TestFetchFailureCounted(t *testing.T) {
	f := newFake()
	missing := gen.New()
	root := mkObj(t, 4096, missing)
	p := New(f, f.has, Config{})
	p.OnFetch(root)
	if p.Counters().FetchFailures != 1 {
		t.Fatalf("counters = %+v", p.Counters())
	}
}

func TestInflightDedup(t *testing.T) {
	// An async fetcher that never completes: second trigger must not
	// re-issue.
	pending := map[oid.ID]*future.Future[*object.Object]{}
	issue := 0
	af := &asyncFetcher{issue: &issue, pending: pending}
	child := mkObj(t, 1024)
	root := mkObj(t, 4096, child.ID())
	p := New(af, func(oid.ID) bool { return false }, Config{})
	p.OnFetch(root)
	p.OnFetch(root)
	if issue != 1 {
		t.Fatalf("issued %d fetches for same in-flight object", issue)
	}
}

type asyncFetcher struct {
	issue   *int
	pending map[oid.ID]*future.Future[*object.Object]
}

func (a *asyncFetcher) AcquireShared(id oid.ID) *future.Future[*object.Object] {
	*a.issue++
	f := new(future.Future[*object.Object])
	a.pending[id] = f
	return f
}
