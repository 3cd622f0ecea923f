package coherence

import (
	"slices"

	"repro/internal/oid"
	"repro/internal/wire"
)

// sharerSlot records one copy holder and the epoch of its most recent
// registration.
type sharerSlot struct {
	st    wire.StationID
	epoch uint64
}

// dirEntry is one home object's sharer set: a small slice instead of
// the map pair it used to be, so a million idle entries cost slice
// headers rather than hash tables. Slots keep registration order,
// which also makes invalidation fan-out order deterministic.
type dirEntry struct {
	slots []sharerSlot
}

// Approximate per-entry cost of the directory representation, used
// for the bytes/object accounting E12 reports. An entry costs its
// map key (16-byte oid.ID), the 8-byte entry pointer, amortized
// map-bucket overhead, and the entry's slice header; each sharer
// costs one 16-byte slot.
const (
	dirEntryOverheadBytes = 16 + 8 + 16 + 24
	dirSlotBytes          = 16
)

// Directory is the compact sharer directory a home node keeps: for
// each home object, which stations hold copies and at which
// registration epoch. Entries are pooled — an entry whose sharer set
// empties is recycled, so resident bytes track live sharing, not the
// historical object population.
//
// Epochs come from one directory-wide monotonic counter, so a
// recycled entry can never hand out an epoch that aliases one
// captured before recycling. Invalidation removes a sharer only when
// its ack arrives and only if the sharer has not re-registered since
// the invalidate went out (Remove's epoch guard): a re-acquire can
// overtake the ack, and an unconditional deferred delete would wipe
// the fresh registration. Epochs also travel: a grant carries the
// epoch of the registration it made, an invalidate the epoch it
// removes, so a sharer can tell whether an invalidate it acks covers a
// grant still on its way (fetchState.dropStale).
type Directory struct {
	entries map[oid.ID]*dirEntry
	free    []*dirEntry
	clock   uint64 // epoch source; bumped on every Add
	slots   int    // live sharer slots across all entries
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[oid.ID]*dirEntry)}
}

// Add registers st as a sharer of obj, creating (or reusing a pooled)
// entry as needed, and bumps st's registration epoch so pending
// deferred removals from earlier invalidation rounds become stale. It
// returns the new epoch, which the grant carries.
func (d *Directory) Add(obj oid.ID, st wire.StationID) uint64 {
	e, ok := d.entries[obj]
	if !ok {
		if n := len(d.free); n > 0 {
			e = d.free[n-1]
			d.free = d.free[:n-1]
		} else {
			e = &dirEntry{}
		}
		d.entries[obj] = e
	}
	d.clock++
	epoch := d.clock
	for i := range e.slots {
		if e.slots[i].st == st {
			e.slots[i].epoch = epoch
			return epoch
		}
	}
	e.slots = append(e.slots, sharerSlot{st: st, epoch: epoch})
	d.slots++
	return epoch
}

// Epoch returns st's current registration epoch on obj. ok is false
// when st is not a recorded sharer.
func (d *Directory) Epoch(obj oid.ID, st wire.StationID) (epoch uint64, ok bool) {
	e, ok := d.entries[obj]
	if !ok {
		return 0, false
	}
	for i := range e.slots {
		if e.slots[i].st == st {
			return e.slots[i].epoch, true
		}
	}
	return 0, false
}

// Remove drops st from obj's sharer set iff its registration epoch
// still equals epoch — the ack-time guard described on Directory. It
// reports whether a slot was removed. An entry whose last sharer
// leaves is recycled into the pool.
func (d *Directory) Remove(obj oid.ID, st wire.StationID, epoch uint64) bool {
	e, ok := d.entries[obj]
	if !ok {
		return false
	}
	for i := range e.slots {
		if e.slots[i].st == st {
			if e.slots[i].epoch != epoch {
				return false
			}
			e.slots = slices.Delete(e.slots, i, i+1)
			d.slots--
			if len(e.slots) == 0 {
				delete(d.entries, obj)
				d.free = append(d.free, e)
			}
			return true
		}
	}
	return false
}

// Sharers reports the number of recorded copy holders of obj.
func (d *Directory) Sharers(obj oid.ID) int {
	if e, ok := d.entries[obj]; ok {
		return len(e.slots)
	}
	return 0
}

// ForEach calls fn for every recorded sharer of obj, in registration
// order, with the epoch current at call time. fn must not mutate the
// directory.
func (d *Directory) ForEach(obj oid.ID, fn func(st wire.StationID, epoch uint64)) {
	e, ok := d.entries[obj]
	if !ok {
		return
	}
	for i := range e.slots {
		fn(e.slots[i].st, e.slots[i].epoch)
	}
}

// SharerSet returns obj's recorded copy holders, sorted.
func (d *Directory) SharerSet(obj oid.ID) []wire.StationID {
	e, ok := d.entries[obj]
	if !ok {
		return nil
	}
	out := make([]wire.StationID, len(e.slots))
	for i := range e.slots {
		out[i] = e.slots[i].st
	}
	slices.Sort(out)
	return out
}

// Len returns the number of live entries (objects with ≥1 sharer).
func (d *Directory) Len() int { return len(d.entries) }

// Bytes returns the approximate resident size of the directory using
// the per-entry accounting above (pooled free entries included at
// slot-capacity cost, since their backing arrays stay allocated).
func (d *Directory) Bytes() int {
	b := len(d.entries)*dirEntryOverheadBytes + d.slots*dirSlotBytes
	for _, e := range d.free {
		b += cap(e.slots) * dirSlotBytes
	}
	return b
}

// Reset drops all entries and the pool.
func (d *Directory) Reset() {
	d.entries = make(map[oid.ID]*dirEntry)
	d.free = nil
	d.slots = 0
	// clock deliberately survives Reset: epochs captured before a
	// crash must never alias epochs handed out after it.
}
