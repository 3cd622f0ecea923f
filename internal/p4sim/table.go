// Package p4sim models a P4-programmable switch in the style of the
// Intel Tofino targets the paper proposes routing on (§3.2): a parser
// over GASP headers feeding match-action tables with exact and ternary
// matching, subject to an SRAM capacity model that
// reproduces the paper's table-density numbers (~1.8M exact entries
// with 64-bit IDs, ~850K with 128-bit IDs).
package p4sim

import (
	"errors"
	"fmt"
	"slices"
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
	// MatchTernary compares under a bit mask. A prefix is the mask of
	// its high bits, with its length as the entry's priority (see
	// discovery.ShardRoute).
	MatchTernary
)

// String names the match kind.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchTernary:
		return "ternary"
	}
	return fmt.Sprintf("match(%d)", uint8(k))
}

// Key declares one component of a table's match key.
type Key struct {
	Field wire.Field
	Kind  MatchKind
}

// KeyValue is the value (and mask, for a ternary key) an entry matches
// against for one key component.
type KeyValue struct {
	Value wire.Value
	// Mask applies to MatchTernary (1-bits are compared).
	Mask wire.Value
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
	Priority int // higher wins among ternary entries
	Action   Action

	// Eviction bookkeeping (unused under EvictNone).
	prev, next *Entry // recency ring links
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
)

// String names the eviction policy.
func (p EvictionPolicy) String() string {
	switch p {
	case EvictNone:
		return "none"
	case EvictLRU:
		return "lru"
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
	// behavior; LRU instead evicts a victim to admit the new
	// entry, modeling a switch whose control plane recycles SRAM
	// under object-table pressure (§3.2).
	Eviction EvictionPolicy
}

// Table is a single match-action table.
type Table struct {
	name string
	keys []Key
	cfg  TableConfig

	// A table of one exact key is a map on that key's value (exact is nil
	// otherwise). An all-exact table's Insert replaces an identical match.
	allExact bool
	exact    map[wire.Value]*Entry

	// Any other table keeps its entries in rules, in match order:
	// priority descending, the earlier insert first among equals.
	rules []*Entry

	entryCost int
	capacity  int

	// Recency ring for LRU: a circular doubly-linked list
	// through every installed entry, sentinel at ring. front
	// (ring.next) is most recently used, back (ring.prev) least.
	ring      Entry
	evictions uint64

	// The flow cache in front of rules, after Open vSwitch's megaflow
	// cache. care, the OR of every mask inserted since Clear, is non-zero
	// at careIdx; headers equal under it match the same entries. Every
	// insert, removal and Clear advances gen, invalidating every slot.
	care    [maxStackKeys]wire.Value
	careIdx []int
	gen     uint64
	flows   []flowSlot // made by the first lookup
}

const flowBits = 9 // the flow cache is 1<<flowBits slots, direct-mapped

// flowSlot holds the scan's answer (nil: no match) for the values under
// care key, valid while the table is at generation gen.
type flowSlot struct {
	gen uint64
	key [maxStackKeys]wire.Value
	hit *Entry
}

// NewTable creates a table with the given key schema.
func NewTable(name string, keys []Key, cfg TableConfig) (*Table, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("p4sim: table %q needs at least one key", name)
	}
	if len(keys) > maxStackKeys {
		return nil, fmt.Errorf("p4sim: table %q: %d key components, at most %d", name, len(keys), maxStackKeys)
	}
	keyBits := 0
	allExact := true
	for _, k := range keys {
		w := k.Field.Width()
		if w == 0 {
			return nil, fmt.Errorf("p4sim: table %q: unknown field %v", name, k.Field)
		}
		keyBits += w
		if k.Kind != MatchExact {
			allExact = false
			// Ternary (TCAM-style) entries store value+mask.
			keyBits += w
		}
	}
	t := &Table{
		name:     name,
		keys:     append([]Key(nil), keys...),
		cfg:      cfg,
		allExact: allExact,
	}
	if allExact && len(keys) == 1 {
		t.exact = make(map[wire.Value]*Entry)
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

// EntryCost returns the SRAM bytes one entry consumes.
func (t *Table) EntryCost() int { return t.entryCost }

// Capacity returns the maximum entry count (-1 = unlimited).
func (t *Table) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.exact) + len(t.rules) }

// Full reports whether another entry would exceed capacity.
func (t *Table) Full() bool { return t.capacity >= 0 && t.Len() >= t.capacity }

func (t *Table) validate(match []KeyValue) error {
	if len(match) != len(t.keys) {
		return fmt.Errorf("%w: %d values for %d keys", ErrBadEntry, len(match), len(t.keys))
	}
	return nil
}

// --- match-ordered rules (every table but one of a single exact key) ---

// componentMask returns the bits of a key component that kv compares:
// its mask for a ternary component, all of them for an exact one. Both
// kinds reduce to a mask, so a rule matches a header whose values equal
// its own under its masks.
func componentMask(k Key, kv KeyValue) wire.Value {
	if k.Kind == MatchTernary {
		return kv.Mask
	}
	return wire.Value{Hi: ^uint64(0), Lo: ^uint64(0)}
}

// insertRule adds e, already validated, to rules behind every entry
// of its priority or higher, and widens care by its masks.
func (t *Table) insertRule(e *Entry) {
	for i, kv := range e.Match {
		m := componentMask(t.keys[i], kv)
		if m == (wire.Value{}) {
			continue
		}
		if t.care[i] == (wire.Value{}) {
			t.careIdx = append(t.careIdx, i)
		}
		t.care[i] = wire.Value{Hi: t.care[i].Hi | m.Hi, Lo: t.care[i].Lo | m.Lo}
	}
	i := sort.Search(len(t.rules), func(i int) bool { return t.rules[i].Priority < e.Priority })
	t.rules = slices.Insert(t.rules, i, e)
	t.gen++
}

// remove takes e, already off the recency ring, out of the table.
func (t *Table) remove(e *Entry) {
	if t.exact != nil {
		delete(t.exact, e.Match[0].Value)
		return
	}
	i := slices.Index(t.rules, e)
	t.rules = slices.Delete(t.rules, i, i+1)
	t.gen++
}

// lookupRules is Lookup for rule-list tables: the highest-priority
// matching entry, the earliest inserted among equals, as the flow cache
// remembers it or else the scan finds it.
func (t *Table) lookupRules(h *wire.Header) (Action, bool) {
	var key [maxStackKeys]wire.Value
	var x uint64
	for _, i := range t.careIdx {
		v, _ := h.Extract(t.keys[i].Field) // NewTable admitted only known fields
		key[i] = wire.Value{Hi: v.Hi & t.care[i].Hi, Lo: v.Lo & t.care[i].Lo}
		// The shifts carry a prefix's high bits down for the next
		// multiply to spread into the top bits, which pick the slot.
		x = (x ^ key[i].Hi) * 0x9E3779B97F4A7C15
		x = (x ^ x>>32 ^ key[i].Lo) * 0x9E3779B97F4A7C15
		x ^= x >> 32
	}
	if t.flows == nil {
		t.flows = make([]flowSlot, 1<<flowBits)
	}
	s := &t.flows[x>>(64-flowBits)]
	if s.gen != t.gen || s.key != key {
		*s = flowSlot{gen: t.gen, key: key, hit: t.scan(&key)}
	}
	if s.hit == nil {
		return Action{}, false
	}
	if t.evicting() {
		t.touch(s.hit)
	}
	return s.hit.Action, true
}

// scan is the flow cache's miss path: the first rule whose values equal
// vals under its masks, or nil. vals is a header's values under care,
// which covers every rule's masks; a component outside careIdx is
// masked out of every rule.
func (t *Table) scan(vals *[maxStackKeys]wire.Value) *Entry {
next:
	for _, e := range t.rules {
		for _, i := range t.careIdx {
			kv := &e.Match[i]
			m := kv.Mask // every filter-table component is ternary
			if t.keys[i].Kind != MatchTernary {
				m = componentMask(t.keys[i], *kv)
			}
			if (vals[i].Hi^kv.Value.Hi)&m.Hi != 0 || (vals[i].Lo^kv.Value.Lo)&m.Lo != 0 {
				continue next
			}
		}
		return e
	}
	return nil
}

// --- recency ring (LRU bookkeeping) ---

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
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// touch records a hit on e for the eviction policy: the entry moves to
// the ring front.
func (t *Table) touch(e *Entry) {
	t.ringRemove(e)
	t.ringPushFront(e)
}

// evictOne removes the least recently hit entry, the ring's back, from
// the table; it reports whether there was one.
func (t *Table) evictOne() bool {
	t.ringInit()
	v := t.ring.prev
	if v == &t.ring {
		return false
	}
	t.ringRemove(v)
	t.remove(v)
	t.evictions++
	return true
}

// Evictions returns the count of entries evicted by the policy.
func (t *Table) Evictions() uint64 { return t.evictions }

// Insert installs an entry, replacing one of identical match in an
// all-exact table (ternary entries accumulate: the earlier of two
// identical ones matches). At capacity, EvictNone fails with
// ErrTableFull; LRU evicts a victim to make room.
func (t *Table) Insert(e Entry) error {
	if err := t.validate(e.Match); err != nil {
		return err
	}
	if t.allExact {
		t.Delete(e.Match)
	}
	if t.Full() {
		if !t.evicting() || !t.evictOne() {
			return fmt.Errorf("%w: %q at %d entries", ErrTableFull, t.name, t.Len())
		}
	}
	ec := e
	if t.exact != nil {
		t.exact[ec.Match[0].Value] = &ec
	} else {
		t.insertRule(&ec)
	}
	if t.evicting() {
		t.ringPushFront(&ec)
	}
	return nil
}

// Delete removes the entry installed with exactly this match (for
// ternary keys: the same values and masks, not merely the same matching
// set); it reports whether an entry was removed. Of several identical
// ternary entries it removes the one lookups were hitting.
func (t *Table) Delete(match []KeyValue) bool {
	if t.validate(match) != nil {
		return false
	}
	var e *Entry
	if t.exact != nil {
		e = t.exact[match[0].Value]
	} else if i := slices.IndexFunc(t.rules, func(r *Entry) bool { return slices.Equal(r.Match, match) }); i >= 0 {
		e = t.rules[i] // the first in match order
	}
	if e == nil {
		return false
	}
	t.ringRemove(e)
	t.remove(e)
	return true
}

// Clear removes all entries.
func (t *Table) Clear() {
	clear(t.exact)
	t.rules = slices.Delete(t.rules, 0, len(t.rules))
	t.ring.next, t.ring.prev = &t.ring, &t.ring
	t.care, t.careIdx = [maxStackKeys]wire.Value{}, t.careIdx[:0]
	t.gen++
}

// maxStackKeys bounds a table's key components, so every key a lookup
// builds, flow-cache keys included, fits on the stack. The widest
// schema the stack declares is the six-field filter table.
const maxStackKeys = 6

// Lookup finds the matching entry for a decoded header, returning its
// action and true on a hit: one probe of a map keyed by the field's
// value for a table of one exact key (every forwarding lookup), one
// flow-cache probe, and on its miss a scan of the rules in match order,
// for any other table (every filter-table probe). Only a table's first
// lookup allocates, its flow cache.
func (t *Table) Lookup(h *wire.Header) (Action, bool) {
	if t.exact == nil {
		return t.lookupRules(h)
	}
	v, _ := h.Extract(t.keys[0].Field) // NewTable admitted only known fields
	e, ok := t.exact[v]
	if !ok {
		return Action{}, false
	}
	if t.evicting() {
		t.touch(e)
	}
	return e.Action, true
}
