// Package p4sim models a P4-programmable switch in the style of the
// Intel Tofino targets the paper proposes routing on (§3.2): a parser
// over GASP headers feeding match-action tables with exact, ternary,
// and longest-prefix matching, subject to an SRAM capacity model that
// reproduces the paper's table-density numbers (~1.8M exact entries
// with 64-bit IDs, ~850K with 128-bit IDs).
package p4sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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
	prev, next *Entry // recency ring links

	// Tuple-space bookkeeping (indexed tables only).
	grp   *tupleGroup // the entry's mask tuple; nil for exact-map entries
	chain *Entry      // next entry of the same bucket, in match order
	seq   uint64      // insert order: priority ties go to the earlier insert
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

	// Any other table's entries live in a tuple-space index: one group
	// per distinct mask tuple, a hash of masked values inside each.
	// groups is sorted by maxPrio descending so a lookup can stop at the
	// first group its best hit outranks.
	groups  []*tupleGroup
	byMask  map[string]*tupleGroup // mask tuple bytes → group
	indexed int                    // entries across all groups
	seq     uint64                 // last Entry.seq handed out

	entryCost int
	capacity  int

	// Recency ring for LRU: a circular doubly-linked list
	// through every installed entry, sentinel at ring. front
	// (ring.next) is most recently used, back (ring.prev) least.
	ring      Entry
	evictions uint64
	// onEvict, if set, observes each policy eviction with the victim
	// entry (called after removal). Side state keyed on table entries —
	// e.g. the INC register cache — uses it to stay in sync.
	onEvict func(*Entry)

	// The flow cache in front of the index, after Open vSwitch's megaflow
	// cache. care, the OR of every mask indexed since Clear, is non-zero
	// at careIdx; headers equal under it match the same entries. Every
	// index, unindex and Clear advances gen, invalidating every slot.
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
			// Ternary/LPM (TCAM-style) entries store value+mask.
			keyBits += w
		}
	}
	t := &Table{
		name:     name,
		keys:     append([]Key(nil), keys...),
		cfg:      cfg,
		allExact: allExact,
		byMask:   make(map[string]*tupleGroup),
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
func (t *Table) Len() int { return len(t.exact) + t.indexed }

// Full reports whether another entry would exceed capacity.
func (t *Table) Full() bool { return t.capacity >= 0 && t.Len() >= t.capacity }

// appendValue appends v's 16 bytes to b — the unit every hash key of
// the index (mask tuple, masked bucket key) is built from.
func appendValue(b []byte, v wire.Value) []byte {
	b = binary.BigEndian.AppendUint64(b, v.Hi)
	return binary.BigEndian.AppendUint64(b, v.Lo)
}

func (t *Table) validate(match []KeyValue) error {
	if len(match) != len(t.keys) {
		return fmt.Errorf("%w: %d values for %d keys", ErrBadEntry, len(match), len(t.keys))
	}
	for i, k := range t.keys {
		if k.Kind == MatchLPM {
			if match[i].PrefixBits < 0 || match[i].PrefixBits > k.Field.Width() {
				return fmt.Errorf("%w: prefix %d bits on %d-bit field",
					ErrBadEntry, match[i].PrefixBits, k.Field.Width())
			}
		}
	}
	return nil
}

// --- tuple-space index (every table but one of a single exact key) ---

// tupleGroup is one tuple of the index: every entry whose match
// compares the same bits of every key component. An exact component
// compares all of them and an LPM component its PrefixBits high ones,
// so all three kinds reduce to a mask, and inside a group matching is
// equality of masked values — one hash probe whatever the group's size.
type tupleGroup struct {
	key   string       // the mask tuple's bytes: this group's key in Table.byMask
	masks []wire.Value // per key component
	// active lists the components with a non-zero mask. The others
	// match anything and are left out of bucket keys.
	active []int
	// buckets maps masked value bytes to the entries carrying them,
	// linked through Entry.chain in match order (priority descending,
	// then insert order), so the head is the bucket's only candidate.
	buckets map[string]*Entry
	n       int // entries in the group
	// maxPrio bounds the group's priorities from above. It rises with
	// inserts and is not lowered by removals (a group that empties is
	// dropped), which keeps removal a map operation; a stale bound
	// costs a lookup one more probe, never a wrong answer.
	maxPrio int
}

// componentMask returns the bits of a key component that kv compares.
func componentMask(k Key, kv KeyValue) wire.Value {
	all := ^uint64(0)
	switch k.Kind {
	case MatchTernary:
		return kv.Mask
	case MatchLPM:
		// The prefix covers the high bits of the field; fields up to 64
		// bits wide live in Lo.
		bits, width := kv.PrefixBits, k.Field.Width()
		switch {
		case bits <= 0:
			return wire.Value{}
		case width <= 64:
			return wire.Value{Lo: all << uint(width-bits)}
		case bits <= 64:
			return wire.Value{Hi: all << uint(64-bits)}
		}
		return wire.Value{Hi: all, Lo: all << uint(128-bits)}
	}
	return wire.Value{Hi: all, Lo: all}
}

// bucketKey appends the bytes of vals under the group's masks to b.
func (g *tupleGroup) bucketKey(b []byte, vals []wire.Value) []byte {
	for _, i := range g.active {
		m, v := g.masks[i], vals[i]
		b = appendValue(b, wire.Value{Hi: v.Hi & m.Hi, Lo: v.Lo & m.Lo})
	}
	return b
}

// bucketOf returns the key of the bucket of g that an entry installed
// with match belongs to.
func bucketOf(g *tupleGroup, match []KeyValue) string {
	var vals [maxStackKeys]wire.Value
	for i, kv := range match {
		vals[i] = kv.Value
	}
	return string(g.bucketKey(nil, vals[:]))
}

// groupFor returns the group of match's mask tuple, or nil if no
// installed entry has that tuple and create is false.
func (t *Table) groupFor(match []KeyValue, create bool) *tupleGroup {
	masks := make([]wire.Value, len(match))
	key := make([]byte, 0, len(match)*16)
	for i, kv := range match {
		masks[i] = componentMask(t.keys[i], kv)
		key = appendValue(key, masks[i])
	}
	g := t.byMask[string(key)]
	if g != nil || !create {
		return g
	}
	g = &tupleGroup{key: string(key), masks: masks, buckets: make(map[string]*Entry)}
	for i, m := range masks {
		if m != (wire.Value{}) {
			g.active = append(g.active, i)
			if t.care[i] == (wire.Value{}) {
				t.careIdx = append(t.careIdx, i)
			}
			t.care[i] = wire.Value{Hi: t.care[i].Hi | m.Hi, Lo: t.care[i].Lo | m.Lo}
		}
	}
	t.byMask[g.key] = g
	t.groups = append(t.groups, g)
	return g
}

// index adds e, already validated, to the tuple-space index.
func (t *Table) index(e *Entry) {
	g := t.groupFor(e.Match, true)
	if g.n == 0 || e.Priority > g.maxPrio {
		// Move the group forward to where its new bound belongs.
		g.maxPrio = e.Priority
		i := slices.Index(t.groups, g)
		for ; i > 0 && t.groups[i-1].maxPrio < g.maxPrio; i-- {
			t.groups[i] = t.groups[i-1]
		}
		t.groups[i] = g
	}
	t.seq++
	t.gen++
	e.seq, e.grp = t.seq, g
	bk := bucketOf(g, e.Match)
	// e is the newest entry, so it goes behind every entry of its
	// priority or higher.
	if head := g.buckets[bk]; head == nil || head.Priority < e.Priority {
		e.chain = head
		g.buckets[bk] = e
	} else {
		p := head
		for p.chain != nil && p.chain.Priority >= e.Priority {
			p = p.chain
		}
		e.chain, p.chain = p.chain, e
	}
	g.n++
	t.indexed++
}

// unindex removes e from the tuple-space index.
func (t *Table) unindex(e *Entry) {
	t.gen++
	g := e.grp
	bk := bucketOf(g, e.Match)
	switch head := g.buckets[bk]; {
	case head != e:
		p := head
		for p.chain != e {
			p = p.chain
		}
		p.chain = e.chain
	case e.chain != nil:
		g.buckets[bk] = e.chain
	default:
		delete(g.buckets, bk)
	}
	e.chain, e.grp = nil, nil
	t.indexed--
	if g.n--; g.n == 0 {
		delete(t.byMask, g.key)
		i := slices.Index(t.groups, g)
		t.groups = slices.Delete(t.groups, i, i+1)
	}
}

// lookupTuple is Lookup for ternary/LPM tables: the highest-priority
// matching entry, the earliest inserted among equals, as the flow cache
// remembers it or else the group scan finds it.
func (t *Table) lookupTuple(h *wire.Header) (Action, bool) {
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
		*s = flowSlot{gen: t.gen, key: key, hit: t.scan(key[:])}
	}
	if s.hit == nil {
		return Action{}, false
	}
	if t.evicting() {
		t.touch(s.hit)
	}
	return s.hit.Action, true
}

// scan is the flow cache's miss path: the group scan for the
// highest-priority entry matching vals, or nil.
func (t *Table) scan(vals []wire.Value) *Entry {
	var kb [maxStackKeys * 16]byte
	var best *Entry
	for _, g := range t.groups {
		if best != nil && best.Priority > g.maxPrio {
			break // nothing from here on can outrank best
		}
		e := g.buckets[string(g.bucketKey(kb[:0], vals))]
		if e != nil && (best == nil || e.Priority > best.Priority ||
			e.Priority == best.Priority && e.seq < best.seq) {
			best = e
		}
	}
	return best
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
	if v.grp != nil {
		t.unindex(v)
	} else {
		delete(t.exact, v.Match[0].Value)
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

// Insert installs an entry, replacing one of identical match in an
// all-exact table (ternary/LPM entries accumulate: the earlier of two
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
		t.index(&ec)
	}
	if t.evicting() {
		t.ringPushFront(&ec)
	}
	return nil
}

// Delete removes the entry installed with exactly this match (for
// ternary/LPM keys: the same values, masks and prefix lengths, not
// merely the same matching set); it reports whether an entry was
// removed. Of several identical ternary/LPM entries it removes the one
// lookups were hitting.
func (t *Table) Delete(match []KeyValue) bool {
	if t.validate(match) != nil {
		return false
	}
	if t.exact != nil {
		e, ok := t.exact[match[0].Value]
		if ok {
			t.ringRemove(e)
			delete(t.exact, match[0].Value)
		}
		return ok
	}
	g := t.groupFor(match, false)
	if g == nil {
		return false
	}
	// Entries equal to match share its bucket, chained in match order.
	for e := g.buckets[bucketOf(g, match)]; e != nil; e = e.chain {
		if slices.Equal(e.Match, match) {
			t.ringRemove(e)
			t.unindex(e)
			return true
		}
	}
	return false
}

// Clear removes all entries.
func (t *Table) Clear() {
	clear(t.exact)
	t.groups, t.indexed = nil, 0
	t.byMask = make(map[string]*tupleGroup)
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
// flow-cache probe, and on its miss one per mask tuple, for any other
// table (every filter-table probe). Only a table's first lookup
// allocates, its flow cache.
func (t *Table) Lookup(h *wire.Header) (Action, bool) {
	if t.exact == nil {
		return t.lookupTuple(h)
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
