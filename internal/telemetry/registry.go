package telemetry

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Registry flattens the scattered per-layer counter structs
// (coherence.Counters, transport.Counters, p4sim.Counters, mux stats,
// ...) into one namespace of stable snake_case metric names. Adding
// two values under the same name sums them, so per-node counters
// registered under a shared prefix aggregate naturally.
type Registry struct {
	vals map[string]uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{vals: make(map[string]uint64)}
}

// Set adds v to the metric called name (creating it at v).
func (r *Registry) Set(name string, v uint64) {
	r.vals[name] += v
}

// Add registers every exported uint64 field of a counter struct (or
// pointer to one) under prefix, as "prefix.snake_case_field". Nested
// structs recurse with their field name joining the prefix; array and
// non-integer fields are skipped (per-type breakdowns stay on their
// native accessors).
func (r *Registry) Add(prefix string, v any) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return
	}
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fv := rv.Field(i)
		switch fv.Kind() {
		case reflect.Uint64, reflect.Uint32, reflect.Uint16, reflect.Uint8, reflect.Uint:
			r.Set(prefix+"."+snake(f.Name), fv.Uint())
		case reflect.Struct:
			r.Add(prefix+"."+snake(f.Name), fv.Interface())
		}
	}
}

// Snapshot freezes the registry into a sorted, immutable view.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{vals: make(map[string]uint64, len(r.vals))}
	for k, v := range r.vals {
		s.vals[k] = v
		s.names = append(s.names, k)
	}
	sort.Strings(s.names)
	return s
}

// Snapshot is a point-in-time view of every registered metric.
type Snapshot struct {
	names []string
	vals  map[string]uint64
}

// Names lists all metric names in sorted order.
func (s Snapshot) Names() []string { return s.names }

// Value returns a metric's value, 0 if absent.
func (s Snapshot) Value(name string) uint64 { return s.vals[name] }

// Len reports the metric count.
func (s Snapshot) Len() int { return len(s.names) }

// MarshalJSON renders the snapshot as one JSON object whose keys
// appear in sorted order — the byte-stable encoding machine-readable
// artifacts (BENCH_load.json) rely on to diff cleanly across runs.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range s.names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(n))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(s.vals[n], 10))
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// String renders "name value" lines in sorted order.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, n := range s.names {
		fmt.Fprintf(&b, "%s %d\n", n, s.vals[n])
	}
	return b.String()
}

// snake converts a Go field name (CamelCase) to snake_case.
func snake(name string) string {
	var b strings.Builder
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			if i > 0 && name[i-1] >= 'a' && name[i-1] <= 'z' {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}
