// Package store implements the per-host object store: the local pool of
// global-address-space objects a host currently holds.
//
// Objects are versioned (the coherence layer bumps the version on every
// write acquisition); a home object, the authoritative copy, is never
// evicted. Cached foreign objects are evicted in LRU order when the
// store exceeds its byte budget — this is the "caching ... moved out of
// the application and back into the infrastructure" of §3.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/wire"
)

// Errors returned by store operations.
var (
	ErrNotFound = errors.New("store: object not found")
	ErrExists   = errors.New("store: object already present")
	ErrTooLarge = errors.New("store: object larger than store budget")
)

// Entry is an object held by the store together with its local
// metadata.
type Entry struct {
	Obj     *object.Object
	Version uint64 // coherence version of this copy
	Home    bool   // this host is the object's home (authoritative copy): never evicted
	// Recyclable marks a cached copy whose region only holders of an
	// exclusive lease were handed: the coherence layer sets it when it
	// installs such a copy and clears it on any other handout, and may
	// then refetch into the region once every lease has ended. Put
	// clears it with every object it installs.
	Recyclable bool
	// Readers, when non-nil, restricts which stations may read the
	// object (nil = world-readable). References remain passable by
	// anyone — §1: "the invoker may wish to refer to data that they
	// lack privileges to read".
	Readers map[wire.StationID]bool

	// prev and next link the entry into the store's LRU ring; both are
	// nil while the entry is a home copy or no longer held.
	prev, next *Entry
}

// CanRead reports whether station may read this entry.
func (e *Entry) CanRead(station wire.StationID) bool {
	return e.Readers == nil || e.Readers[station]
}

// Store is a thread-safe per-host object pool with an optional byte
// budget. A budget of 0 means unlimited.
type Store struct {
	mu      sync.Mutex
	budget  int
	used    int
	objects map[oid.ID]*Entry
	// lru is the sentinel of the ring of cached (non-home) entries:
	// lru.next is the most recently used, lru.prev the next to evict.
	// Entries carry their own links, so recency costs no allocation.
	lru Entry
}

// New creates a store with the given byte budget (0 = unlimited).
func New(budget int) *Store {
	s := &Store{budget: budget, objects: make(map[oid.ID]*Entry)}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// unlink takes e out of the LRU ring, if it is in it.
func (s *Store) unlink(e *Entry) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
		e.prev, e.next = nil, nil
	}
}

// pushFront makes e the most recently used entry of the ring.
func (s *Store) pushFront(e *Entry) {
	s.unlink(e)
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// Put inserts an object; a home copy stays out of the LRU ring. If an
// object with the same ID is held, its entry takes the new object in
// place (keeping the higher version, to keep the freshest copy, and
// the readers), so re-installing a held ID allocates nothing.
func (s *Store) Put(o *object.Object, version uint64, home bool) error {
	if o == nil {
		return fmt.Errorf("store: nil object")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	size := o.Size()
	if s.budget > 0 && size > s.budget {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, s.budget)
	}
	e, ok := s.objects[o.ID()]
	if ok {
		s.used -= e.Obj.Size()
		e.Obj, e.Recyclable = o, false
		e.Version = max(e.Version, version)
		e.Home = e.Home || home
	} else {
		e = &Entry{Obj: o, Version: version, Home: home}
		s.objects[o.ID()] = e
	}
	if e.Home {
		s.unlink(e)
	} else {
		s.pushFront(e)
	}
	s.used += size
	s.evictLocked()
	return nil
}

// evictLocked drops least-recently-used cached entries until the
// budget is satisfied.
func (s *Store) evictLocked() {
	if s.budget <= 0 {
		return
	}
	for s.used > s.budget {
		e := s.lru.prev
		if e == &s.lru {
			return // only home copies remain
		}
		s.unlink(e)
		delete(s.objects, e.Obj.ID())
		s.used -= e.Obj.Size()
	}
}

// Lookup returns id's entry (object, version, home flag, readers) and
// marks it recently used. A miss allocates nothing, so callers probing
// for a cached copy on every operation (the coherence hot path) pay no
// error-construction cost.
func (s *Store) Lookup(id oid.ID) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	if ok && e.next != nil {
		s.pushFront(e)
	}
	return e, ok
}

// Peek is Lookup without touching LRU order — for observers (the
// invariant checker) that must not perturb eviction behavior.
func (s *Store) Peek(id oid.ID) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	return e, ok
}

// Contains reports presence without touching LRU order.
func (s *Store) Contains(id oid.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[id]
	return ok
}

// IsHome reports whether this store holds the authoritative copy,
// without touching LRU order.
func (s *Store) IsHome(id oid.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	return ok && e.Home
}

// BumpVersion increments and returns the stored copy's version.
func (s *Store) BumpVersion(id oid.ID) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id.Short())
	}
	e.Version++
	return e.Version, nil
}

// SetReaders restricts id's readers to the given stations (nil
// restores world-readability). Only meaningful on home copies — the
// home enforces the ACL when serving reads and grants.
func (s *Store) SetReaders(id oid.ID, stations []wire.StationID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id.Short())
	}
	if stations == nil {
		e.Readers = nil
		return nil
	}
	e.Readers = make(map[wire.StationID]bool, len(stations))
	for _, st := range stations {
		e.Readers[st] = true
	}
	return nil
}

// Delete removes id from the store.
func (s *Store) Delete(id oid.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id.Short())
	}
	s.unlink(e)
	delete(s.objects, id)
	s.used -= e.Obj.Size()
	return nil
}

// Invalidate drops a cached (non-home) copy; it refuses to drop the
// authoritative copy.
func (s *Store) Invalidate(id oid.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	if !ok {
		return nil // already gone: invalidation is idempotent
	}
	if e.Home {
		return fmt.Errorf("store: refusing to invalidate home copy of %s", id.Short())
	}
	s.unlink(e)
	delete(s.objects, id)
	s.used -= e.Obj.Size()
	return nil
}

// Clear drops every entry — home copies included — modeling a crash
// that loses the host's (volatile) object pool.
func (s *Store) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = make(map[oid.ID]*Entry)
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	s.used = 0
}

// List returns all held IDs in sorted order.
func (s *Store) List() []oid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]oid.ID, 0, len(s.objects))
	for id := range s.objects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HomeList returns the IDs of objects this host is home for.
func (s *Store) HomeList() []oid.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []oid.ID
	for id, e := range s.objects {
		if e.Home {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Len returns the number of held objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}
