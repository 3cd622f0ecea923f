// Package p4sim models a P4-programmable switch in the style of the
// Intel Tofino targets the paper proposes routing on (§3.2): a parser
// over GASP headers feeding match-action tables with exact, ternary,
// and longest-prefix matching, subject to an SRAM capacity model that
// reproduces the paper's table-density numbers (~1.8M exact entries
// with 64-bit IDs, ~850K with 128-bit IDs).
package p4sim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/gasperr"
	"repro/internal/wire"
)

// MatchKind selects how a key field is compared.
type MatchKind uint8

// Match kinds.
const (
	// MatchExact compares the full field value.
	MatchExact MatchKind = iota
	// MatchTernary compares under a bit mask.
	MatchTernary
	// MatchLPM compares the high PrefixBits bits (object prefixes for
	// the hierarchical overlay schemes of §3.2).
	MatchLPM
)

// String names the match kind.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	case MatchLPM:
		return "lpm"
	}
	return fmt.Sprintf("match(%d)", uint8(k))
}

// Key declares one component of a table's match key.
type Key struct {
	Field wire.Field
	Kind  MatchKind
}

// KeyValue is the value (and mask/prefix, per kind) an entry matches
// against for one key component.
type KeyValue struct {
	Value wire.Value
	// Mask applies to MatchTernary (1-bits are compared).
	Mask wire.Value
	// PrefixBits applies to MatchLPM.
	PrefixBits int
}

// ActionType enumerates data-plane actions.
type ActionType uint8

// Actions.
const (
	// ActDrop discards the frame.
	ActDrop ActionType = iota
	// ActForward emits the frame on Port.
	ActForward
	// ActFlood emits the frame on every port except the ingress.
	ActFlood
	// ActToController punts the frame to the CPU port.
	ActToController
)

// String names the action type.
func (a ActionType) String() string {
	switch a {
	case ActDrop:
		return "drop"
	case ActForward:
		return "forward"
	case ActFlood:
		return "flood"
	case ActToController:
		return "to-controller"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Action is a resolved data-plane action.
type Action struct {
	Type ActionType
	Port int
}

// Entry is one installed table entry.
type Entry struct {
	Match    []KeyValue
	Priority int // higher wins among ternary/LPM entries
	Action   Action

	// Eviction bookkeeping (unused under EvictNone).
	key        string // exact-map key; "" for ternary/LPM entries
	prev, next *Entry // recency ring links
	ref        bool   // CLOCK reference bit
}

// SRAM capacity model. Exact-match tables on Tofino-class hardware
// pack entries into fixed-width SRAM words with per-entry action data
// and pointer/ECC overhead, and hash packing degrades for entries that
// span multiple words. With a 30 MiB table budget this yields
// ~1.81M 64-bit-key entries and ~855K 128-bit-key entries, matching
// §3.2's "∼1.8M exact entries ... ∼850K".
const (
	// SRAMWordBytes is the allocation granule.
	SRAMWordBytes = 16
	// EntryOverheadBytes covers action data, entry pointer, and ECC.
	EntryOverheadBytes = 8
	// DefaultTableMemory is the per-table SRAM budget.
	DefaultTableMemory = 30 << 20
)

// Hash fill factors: single-word entries pack better than multi-word.
const (
	fillSingleWord = 0.92
	fillMultiWord  = 0.87
)

// Errors returned by table operations. ErrTableFull wraps the shared
// gasperr sentinel so upper layers can classify capacity exhaustion.
var (
	ErrTableFull = fmt.Errorf("p4sim: %w", gasperr.ErrTableFull)
	ErrBadEntry  = errors.New("p4sim: entry does not match table key schema")
)

// EvictionPolicy selects what a full table does with a new entry.
type EvictionPolicy uint8

// Eviction policies.
const (
	// EvictNone rejects inserts at capacity (ErrTableFull) — the
	// pre-existing behavior and the zero value.
	EvictNone EvictionPolicy = iota
	// EvictLRU evicts the least-recently-hit entry.
	EvictLRU
	// EvictCLOCK approximates LRU with a reference bit and a sweeping
	// hand — the cheap-to-implement-in-hardware variant.
	EvictCLOCK
)

// String names the eviction policy.
func (p EvictionPolicy) String() string {
	switch p {
	case EvictNone:
		return "none"
	case EvictLRU:
		return "lru"
	case EvictCLOCK:
		return "clock"
	}
	return fmt.Sprintf("evict(%d)", uint8(p))
}

// TableConfig configures a table's resources.
type TableConfig struct {
	// MemoryBytes is the SRAM budget; 0 selects DefaultTableMemory,
	// negative means unlimited.
	MemoryBytes int
	// Eviction selects the at-capacity policy. The zero value
	// (EvictNone) keeps the historical reject-with-ErrTableFull
	// behavior; LRU/CLOCK instead evict a victim to admit the new
	// entry, modeling a switch whose control plane recycles SRAM
	// under object-table pressure (§3.2).
	Eviction EvictionPolicy
}

// Table is a single match-action table.
type Table struct {
	name string
	keys []Key
	cfg  TableConfig

	exactOnly bool
	exact     map[string]*Entry
	scan      []*Entry // ternary/LPM entries, sorted by priority desc

	entryCost int
	capacity  int

	// Recency ring for LRU/CLOCK: a circular doubly-linked list
	// through every installed entry, sentinel at ring. front
	// (ring.next) is most recently used, back (ring.prev) least.
	ring      Entry
	hand      *Entry // CLOCK sweep cursor
	evictions uint64
	// onEvict, if set, observes each policy eviction with the victim
	// entry (called after removal). Side state keyed on table entries —
	// e.g. the INC register cache — uses it to stay in sync.
	onEvict func(*Entry)

	// vals is lookupSlow's extracted-key scratch, reused across
	// lookups so the ternary/LPM path (every sharded filter-table
	// probe) stays allocation-free. Lookups are serialized — the
	// simulator is single-threaded — and nothing retains the slice.
	vals []wire.Value
}

// NewTable creates a table with the given key schema.
func NewTable(name string, keys []Key, cfg TableConfig) (*Table, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("p4sim: table %q needs at least one key", name)
	}
	keyBits := 0
	exactOnly := true
	for _, k := range keys {
		w := k.Field.Width()
		if w == 0 {
			return nil, fmt.Errorf("p4sim: table %q: unknown field %v", name, k.Field)
		}
		keyBits += w
		if k.Kind != MatchExact {
			exactOnly = false
			// Ternary/LPM (TCAM-style) entries store value+mask.
			keyBits += w
		}
	}
	t := &Table{
		name:      name,
		keys:      append([]Key(nil), keys...),
		cfg:       cfg,
		exactOnly: exactOnly,
		exact:     make(map[string]*Entry),
	}
	keyBytes := (keyBits + 7) / 8
	raw := keyBytes + EntryOverheadBytes
	words := (raw + SRAMWordBytes - 1) / SRAMWordBytes
	t.entryCost = words * SRAMWordBytes

	mem := cfg.MemoryBytes
	if mem == 0 {
		mem = DefaultTableMemory
	}
	if mem < 0 {
		t.capacity = -1 // unlimited
	} else {
		fill := fillSingleWord
		if words > 1 {
			fill = fillMultiWord
		}
		t.capacity = int(float64(mem) * fill / float64(t.entryCost))
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Keys returns the table's key schema.
func (t *Table) Keys() []Key { return t.keys }

// EntryCost returns the SRAM bytes one entry consumes.
func (t *Table) EntryCost() int { return t.entryCost }

// Capacity returns the maximum entry count (-1 = unlimited).
func (t *Table) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.exact) + len(t.scan) }

// Full reports whether another entry would exceed capacity.
func (t *Table) Full() bool { return t.capacity >= 0 && t.Len() >= t.capacity }

// exactKey builds the map key for an all-exact entry.
func (t *Table) exactKey(match []KeyValue) string {
	b := make([]byte, 0, len(match)*16)
	for _, kv := range match {
		var tmp [16]byte
		wire.Value(kv.Value).AsID().PutBytes(tmp[:])
		b = append(b, tmp[:]...)
	}
	return string(b)
}

func (t *Table) validate(e *Entry) error {
	if len(e.Match) != len(t.keys) {
		return fmt.Errorf("%w: %d values for %d keys", ErrBadEntry, len(e.Match), len(t.keys))
	}
	for i, k := range t.keys {
		if k.Kind == MatchLPM {
			if e.Match[i].PrefixBits < 0 || e.Match[i].PrefixBits > k.Field.Width() {
				return fmt.Errorf("%w: prefix %d bits on %d-bit field",
					ErrBadEntry, e.Match[i].PrefixBits, k.Field.Width())
			}
		}
	}
	return nil
}

// --- recency ring (LRU/CLOCK bookkeeping) ---

func (t *Table) evicting() bool { return t.cfg.Eviction != EvictNone }

func (t *Table) ringInit() {
	if t.ring.next == nil {
		t.ring.next = &t.ring
		t.ring.prev = &t.ring
	}
}

func (t *Table) ringPushFront(e *Entry) {
	t.ringInit()
	e.prev = &t.ring
	e.next = t.ring.next
	e.prev.next = e
	e.next.prev = e
}

func (t *Table) ringRemove(e *Entry) {
	if e.prev == nil {
		return
	}
	if t.hand == e {
		t.hand = e.next
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// touch records a hit on e for the eviction policy: LRU moves it to
// the ring front, CLOCK sets its reference bit.
func (t *Table) touch(e *Entry) {
	switch t.cfg.Eviction {
	case EvictLRU:
		t.ringRemove(e)
		t.ringPushFront(e)
	case EvictCLOCK:
		e.ref = true
	}
}

// victim selects the entry to evict: the ring back for LRU, the first
// unreferenced entry under the sweeping hand for CLOCK (clearing
// reference bits as it passes). Returns nil when the table is empty.
func (t *Table) victim() *Entry {
	t.ringInit()
	if t.ring.next == &t.ring {
		return nil
	}
	if t.cfg.Eviction == EvictLRU {
		return t.ring.prev
	}
	h := t.hand
	if h == nil || h == &t.ring {
		h = t.ring.next
	}
	for {
		if h == &t.ring { // skip the sentinel
			h = h.next
			continue
		}
		if !h.ref {
			t.hand = h.next
			return h
		}
		h.ref = false
		h = h.next
	}
}

// evictOne removes the policy's victim from the table; it reports
// whether an entry was evicted.
func (t *Table) evictOne() bool {
	v := t.victim()
	if v == nil {
		return false
	}
	t.ringRemove(v)
	if v.key != "" {
		delete(t.exact, v.key)
	} else {
		for i, e := range t.scan {
			if e == v {
				t.scan = append(t.scan[:i], t.scan[i+1:]...)
				break
			}
		}
	}
	t.evictions++
	if t.onEvict != nil {
		t.onEvict(v)
	}
	return true
}

// Evictions returns the count of entries evicted by the policy.
func (t *Table) Evictions() uint64 { return t.evictions }

// SetOnEvict installs (or replaces) the eviction observer — for side
// state that attaches to a table built elsewhere, like the INC cache
// coupling to the switch object table.
func (t *Table) SetOnEvict(fn func(*Entry)) { t.onEvict = fn }

// Insert installs an entry, replacing an identical-match exact entry.
// At capacity, EvictNone fails with ErrTableFull; LRU/CLOCK evict a
// victim to make room.
func (t *Table) Insert(e Entry) error {
	if err := t.validate(&e); err != nil {
		return err
	}
	if t.exactOnly {
		key := t.exactKey(e.Match)
		if _, exists := t.exact[key]; !exists && t.Full() {
			if !t.evicting() || !t.evictOne() {
				return fmt.Errorf("%w: %q at %d entries", ErrTableFull, t.name, t.Len())
			}
		}
		ec := e
		ec.key = key
		if old, exists := t.exact[key]; exists && t.evicting() {
			t.ringRemove(old)
		}
		t.exact[key] = &ec
		if t.evicting() {
			t.ringPushFront(&ec)
		}
		return nil
	}
	if t.Full() {
		if !t.evicting() || !t.evictOne() {
			return fmt.Errorf("%w: %q at %d entries", ErrTableFull, t.name, t.Len())
		}
	}
	ec := e
	t.scan = append(t.scan, &ec)
	sort.SliceStable(t.scan, func(i, j int) bool {
		return t.scan[i].Priority > t.scan[j].Priority
	})
	if t.evicting() {
		t.ringPushFront(&ec)
	}
	return nil
}

// Delete removes an exact entry by match; it reports whether an entry
// was removed. (Ternary/LPM entries are removed by Clear or reinstall.)
func (t *Table) Delete(match []KeyValue) bool {
	if t.exactOnly {
		key := t.exactKey(match)
		if e, ok := t.exact[key]; ok {
			t.ringRemove(e)
			delete(t.exact, key)
			return true
		}
		return false
	}
	for i, e := range t.scan {
		if matchEqual(e.Match, match) {
			t.ringRemove(e)
			t.scan = append(t.scan[:i], t.scan[i+1:]...)
			return true
		}
	}
	return false
}

func matchEqual(a, b []KeyValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clear removes all entries.
func (t *Table) Clear() {
	t.exact = make(map[string]*Entry)
	t.scan = nil
	t.ring.next, t.ring.prev = &t.ring, &t.ring
	t.hand = nil
}

// maxStackKeys bounds the key components a lookup can hold on the
// stack; wider schemas fall back to heap buffers. Every table the
// switch program builds uses a single key component.
const maxStackKeys = 4

// Lookup finds the matching entry for a decoded header, returning its
// action and true on a hit. The hot path (exact tables with a narrow
// key schema, i.e. every forwarding lookup) is allocation-free.
func (t *Table) Lookup(h *wire.Header) (Action, bool) {
	if t.exactOnly && len(t.keys) <= maxStackKeys {
		var kb [maxStackKeys * 16]byte
		b := kb[:0]
		for _, k := range t.keys {
			v, err := h.Extract(k.Field)
			if err != nil {
				return Action{}, false
			}
			var tmp [16]byte
			v.AsID().PutBytes(tmp[:])
			b = append(b, tmp[:]...)
		}
		if e, ok := t.exact[string(b)]; ok {
			if t.evicting() {
				t.touch(e)
			}
			return e.Action, true
		}
		return Action{}, false
	}
	return t.lookupSlow(h)
}

// lookupSlow handles ternary/LPM tables and exact tables with wide
// key schemas.
func (t *Table) lookupSlow(h *wire.Header) (Action, bool) {
	if cap(t.vals) < len(t.keys) {
		t.vals = make([]wire.Value, len(t.keys))
	}
	vals := t.vals[:len(t.keys)]
	for i, k := range t.keys {
		v, err := h.Extract(k.Field)
		if err != nil {
			return Action{}, false
		}
		vals[i] = v
	}
	if t.exactOnly {
		// Wide exact schemas (> maxStackKeys components) land here;
		// 8 components cover every schema the stack declares.
		var kb [8 * 16]byte
		b := kb[:0]
		for _, v := range vals {
			var tmp [16]byte
			v.AsID().PutBytes(tmp[:])
			b = append(b, tmp[:]...)
		}
		if e, ok := t.exact[string(b)]; ok {
			if t.evicting() {
				t.touch(e)
			}
			return e.Action, true
		}
		return Action{}, false
	}
	for _, e := range t.scan {
		if t.entryMatches(e, vals) {
			if t.evicting() {
				t.touch(e)
			}
			return e.Action, true
		}
	}
	return Action{}, false
}

func (t *Table) entryMatches(e *Entry, vals []wire.Value) bool {
	for i, k := range t.keys {
		kv, v := e.Match[i], vals[i]
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
		case MatchLPM:
			if !prefixMatches(kv.Value, kv.PrefixBits, v, k.Field.Width()) {
				return false
			}
		}
	}
	return true
}

// prefixMatches compares the high bits of v against pv, where the
// field is fieldBits wide and the prefix covers bits high bits.
func prefixMatches(pv wire.Value, bits int, v wire.Value, fieldBits int) bool {
	if bits <= 0 {
		return true
	}
	if fieldBits <= 64 {
		// Value lives in Lo; high bits of the field are the high bits
		// of the fieldBits-wide value.
		shift := uint(fieldBits - bits)
		return (v.Lo >> shift) == (pv.Lo >> shift)
	}
	// 128-bit field.
	if bits <= 64 {
		shift := uint(64 - bits)
		return (v.Hi >> shift) == (pv.Hi >> shift)
	}
	if v.Hi != pv.Hi {
		return false
	}
	shift := uint(128 - bits)
	return (v.Lo >> shift) == (pv.Lo >> shift)
}
