// Package pubsub implements Packet Subscriptions [Jepsen et al.,
// CoNEXT '20] as used by the paper's prototype (§3.2): pub/sub-style
// forwarding over user-defined packet formats. Subscribers register
// predicates over GASP header fields; the compiler lowers the
// predicate language (equality, masked match, prefix, and/or) into
// prioritized ternary match-action entries installable in a P4
// pipeline.
package pubsub

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/p4sim"
	"repro/internal/wire"
)

// Pred is a boolean predicate over a GASP header.
type Pred interface {
	// Eval answers the predicate in software (host-side fallback).
	Eval(h *wire.Header) bool
	String() string
}

// eqPred matches a field exactly.
type eqPred struct {
	field wire.Field
	val   wire.Value
}

// Eq matches field == v.
func Eq(field wire.Field, v wire.Value) Pred { return eqPred{field, v} }

// EqType matches the message type.
func EqType(t wire.MsgType) Pred { return Eq(wire.FieldType, wire.ValueOf(uint64(t))) }

func (p eqPred) Eval(h *wire.Header) bool {
	v, err := h.Extract(p.field)
	return err == nil && v == p.val
}

func (p eqPred) String() string {
	return fmt.Sprintf("%s==%x:%x", p.field, p.val.Hi, p.val.Lo)
}

// maskPred matches (field & mask) == (val & mask).
type maskPred struct {
	field wire.Field
	val   wire.Value
	mask  wire.Value
}

// Mask matches field under a bit mask.
func Mask(field wire.Field, v, m wire.Value) Pred { return maskPred{field, v, m} }

func (p maskPred) Eval(h *wire.Header) bool {
	v, err := h.Extract(p.field)
	if err != nil {
		return false
	}
	return v.Hi&p.mask.Hi == p.val.Hi&p.mask.Hi && v.Lo&p.mask.Lo == p.val.Lo&p.mask.Lo
}

func (p maskPred) String() string {
	return fmt.Sprintf("%s&%x:%x==%x:%x", p.field, p.mask.Hi, p.mask.Lo, p.val.Hi, p.val.Lo)
}

// prefixPred matches the high bits of a field (hierarchical object
// overlays, §3.2).
type prefixPred struct {
	field wire.Field
	val   wire.Value
	bits  int
}

// Prefix matches the high n bits of field.
func Prefix(field wire.Field, v wire.Value, n int) Pred { return prefixPred{field, v, n} }

func (p prefixPred) Eval(h *wire.Header) bool {
	return maskPred{p.field, p.val, prefixMask(p.field.Width(), p.bits)}.Eval(h)
}

func (p prefixPred) String() string {
	return fmt.Sprintf("%s/%d==%x:%x", p.field, p.bits, p.val.Hi, p.val.Lo)
}

// prefixMask builds the mask selecting the high n bits of a w-bit
// field. Values narrower than 128 bits live in Lo.
func prefixMask(w, n int) wire.Value {
	if n <= 0 {
		return wire.Value{}
	}
	if n > w {
		n = w
	}
	if w <= 64 {
		return wire.Value{Lo: (^uint64(0) << uint(w-n)) & (^uint64(0) >> uint(64-w))}
	}
	if n <= 64 {
		return wire.Value{Hi: ^uint64(0) << uint(64-n)}
	}
	return wire.Value{Hi: ^uint64(0), Lo: ^uint64(0) << uint(128-n)}
}

// andPred is a conjunction.
type andPred struct{ preds []Pred }

// And builds a conjunction.
func And(preds ...Pred) Pred { return andPred{preds} }

func (p andPred) Eval(h *wire.Header) bool {
	for _, q := range p.preds {
		if !q.Eval(h) {
			return false
		}
	}
	return true
}

func (p andPred) String() string { return joinPreds(p.preds, " && ") }

// orPred is a disjunction.
type orPred struct{ preds []Pred }

// Or builds a disjunction.
func Or(preds ...Pred) Pred { return orPred{preds} }

func (p orPred) Eval(h *wire.Header) bool {
	for _, q := range p.preds {
		if q.Eval(h) {
			return true
		}
	}
	return false
}

func (p orPred) String() string { return joinPreds(p.preds, " || ") }

// truePred matches everything.
type truePred struct{}

// True matches every frame.
func True() Pred { return truePred{} }

func (truePred) Eval(*wire.Header) bool { return true }
func (truePred) String() string         { return "true" }

func joinPreds(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// atom is one field constraint in a compiled conjunction.
type atom struct {
	field wire.Field
	val   wire.Value
	mask  wire.Value
}

// conjunction is a set of per-field constraints; fields absent are
// wildcards.
type conjunction map[wire.Field]atom

// Compilation errors.
var (
	ErrUnsupported   = errors.New("pubsub: predicate not compilable")
	ErrUnsatisfiable = errors.New("pubsub: predicate is unsatisfiable")
)

// compile lowers a predicate to disjunctive normal form.
func compile(p Pred) ([]conjunction, error) {
	switch q := p.(type) {
	case truePred:
		return []conjunction{{}}, nil
	case eqPred:
		w := q.field.Width()
		if w == 0 {
			return nil, fmt.Errorf("%w: unknown field", ErrUnsupported)
		}
		return []conjunction{{q.field: atom{q.field, q.val, prefixMask(w, w)}}}, nil
	case maskPred:
		return []conjunction{{q.field: atom{q.field, q.val, q.mask}}}, nil
	case prefixPred:
		return []conjunction{{q.field: atom{q.field, q.val, prefixMask(q.field.Width(), q.bits)}}}, nil
	case andPred:
		acc := []conjunction{{}}
		for _, sub := range q.preds {
			terms, err := compile(sub)
			if err != nil {
				return nil, err
			}
			var next []conjunction
			for _, a := range acc {
				for _, b := range terms {
					m, ok := mergeConj(a, b)
					if ok {
						next = append(next, m)
					}
				}
			}
			acc = next
		}
		if len(acc) == 0 {
			return nil, ErrUnsatisfiable
		}
		return acc, nil
	case orPred:
		var out []conjunction
		for _, sub := range q.preds {
			terms, err := compile(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, terms...)
		}
		if len(out) == 0 {
			return nil, ErrUnsatisfiable
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, p)
	}
}

// mergeConj intersects two conjunctions; ok=false if contradictory.
func mergeConj(a, b conjunction) (conjunction, bool) {
	out := make(conjunction, len(a)+len(b))
	for f, at := range a {
		out[f] = at
	}
	for f, bt := range b {
		at, exists := out[f]
		if !exists {
			out[f] = bt
			continue
		}
		// Intersect: overlapping mask bits must agree.
		overlapHi := at.mask.Hi & bt.mask.Hi
		overlapLo := at.mask.Lo & bt.mask.Lo
		if at.val.Hi&overlapHi != bt.val.Hi&overlapHi ||
			at.val.Lo&overlapLo != bt.val.Lo&overlapLo {
			return nil, false
		}
		merged := atom{
			field: f,
			mask:  wire.Value{Hi: at.mask.Hi | bt.mask.Hi, Lo: at.mask.Lo | bt.mask.Lo},
			val: wire.Value{
				Hi: (at.val.Hi & at.mask.Hi) | (bt.val.Hi & bt.mask.Hi),
				Lo: (at.val.Lo & at.mask.Lo) | (bt.val.Lo & bt.mask.Lo),
			},
		}
		out[f] = merged
	}
	return out, true
}

// Subscription pairs a compiled filter with a forwarding action.
type Subscription struct {
	ID     int
	Filter Pred
	Action p4sim.Action
}

// Engine manages subscriptions and compiles them into a switch table.
type Engine struct {
	nextID int
	subs   []Subscription
}

// NewEngine creates an empty subscription engine.
func NewEngine() *Engine { return &Engine{} }

// Subscribe registers a filter; it returns the subscription ID.
// The filter is compiled eagerly so invalid predicates fail here.
func (e *Engine) Subscribe(filter Pred, act p4sim.Action) (int, error) {
	if _, err := compile(filter); err != nil {
		return 0, err
	}
	e.nextID++
	e.subs = append(e.subs, Subscription{ID: e.nextID, Filter: filter, Action: act})
	return e.nextID, nil
}

// Subscriptions returns a copy of the registered subscriptions.
func (e *Engine) Subscriptions() []Subscription {
	return append([]Subscription(nil), e.subs...)
}

// Match evaluates subscriptions in software, earliest-registered
// first; used on hosts (the end-to-end fallback).
func (e *Engine) Match(h *wire.Header) (p4sim.Action, bool) {
	for _, s := range e.subs {
		if s.Filter.Eval(h) {
			return s.Action, true
		}
	}
	return p4sim.Action{}, false
}

// FilterKeys is the ternary key schema the compiled table uses: every
// matchable header field.
func FilterKeys() []p4sim.Key {
	return []p4sim.Key{
		{Field: wire.FieldType, Kind: p4sim.MatchTernary},
		{Field: wire.FieldFlags, Kind: p4sim.MatchTernary},
		{Field: wire.FieldSrc, Kind: p4sim.MatchTernary},
		{Field: wire.FieldDst, Kind: p4sim.MatchTernary},
		{Field: wire.FieldObject, Kind: p4sim.MatchTernary},
		{Field: wire.FieldSeq, Kind: p4sim.MatchTernary},
	}
}

// NewFilterTable builds a table with the FilterKeys schema.
func NewFilterTable(name string, cfg p4sim.TableConfig) (*p4sim.Table, error) {
	return p4sim.NewTable(name, FilterKeys(), cfg)
}

// CompileTo clears table and installs one ternary entry per DNF term
// of every subscription. More-constrained terms get higher priority;
// ties break toward earlier subscriptions.
func (e *Engine) CompileTo(table *p4sim.Table) error {
	type row struct {
		entry p4sim.Entry
		bits  int
		order int
	}
	var rows []row
	for order, s := range e.subs {
		terms, err := compile(s.Filter)
		if err != nil {
			return fmt.Errorf("pubsub: subscription %d: %w", s.ID, err)
		}
		for _, conj := range terms {
			match := make([]p4sim.KeyValue, len(FilterKeys()))
			maskBits := 0
			for i, k := range FilterKeys() {
				if at, ok := conj[k.Field]; ok {
					match[i] = p4sim.KeyValue{Value: at.val, Mask: at.mask}
					maskBits += bits.OnesCount64(at.mask.Hi) + bits.OnesCount64(at.mask.Lo)
				}
			}
			rows = append(rows, row{
				entry: p4sim.Entry{Match: match, Action: s.Action},
				bits:  maskBits,
				order: order,
			})
		}
	}
	// Priority: specificity first, then registration order.
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].bits != rows[j].bits {
			return rows[i].bits > rows[j].bits
		}
		return rows[i].order < rows[j].order
	})
	table.Clear()
	for i := range rows {
		rows[i].entry.Priority = len(rows) - i
		if err := table.Insert(rows[i].entry); err != nil {
			return err
		}
	}
	return nil
}
