package telemetry

import (
	"slices"
	"testing"
)

type innerCounters struct {
	CacheHits uint64
	cacheMiss uint64 // unexported: must be skipped
}

type fakeCounters struct {
	FramesSent  uint64
	ParseDrops  uint32
	RTT         uint64
	PerType     [4]uint64 // arrays are skipped
	Name        string    // non-integer: skipped
	Sub         innerCounters
	SignedValue int64 // signed: skipped
}

func TestRegistryFlattensAndSums(t *testing.T) {
	r := NewRegistry()
	r.Add("transport", fakeCounters{FramesSent: 3, ParseDrops: 1, RTT: 9,
		Sub: innerCounters{CacheHits: 5}})
	r.Add("transport", &fakeCounters{FramesSent: 4}) // pointer, same prefix: sums
	r.Add("transport", (*fakeCounters)(nil))         // nil pointer: no-op
	r.Add("transport", 42)                           // non-struct: no-op
	r.Set("custom.metric", 7)
	r.Set("custom.metric", 3)

	s := r.Snapshot()
	want := map[string]uint64{
		"transport.frames_sent":    7,
		"transport.parse_drops":    1,
		"transport.rtt":            9,
		"transport.sub.cache_hits": 5,
		"custom.metric":            10,
	}
	for name, v := range want {
		if !slices.Contains(s.Names(), name) {
			t.Errorf("metric %q missing; snapshot:\n%s", name, s.String())
			continue
		}
		if got := s.Value(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if s.Len() != len(want) {
		t.Errorf("snapshot has %d metrics, want %d:\n%s", s.Len(), len(want), s.String())
	}
	for _, absent := range []string{"transport.per_type", "transport.name",
		"transport.signed_value", "transport.sub.cache_miss"} {
		if slices.Contains(s.Names(), absent) {
			t.Errorf("metric %q should have been skipped", absent)
		}
	}
	// Names are sorted; Value tolerates absent metrics.
	names := s.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if s.Value("nope") != 0 {
		t.Error("absent metric should read as 0")
	}
}

// TestSnapshotJSONDeterministic pins the snapshot's JSON encoding:
// keys sorted, no whitespace — the exact bytes BENCH artifacts embed,
// so two same-seed runs diff cleanly.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Set("zeta.last", 1)
		r.Set("alpha.first", 2)
		r.Set("mid.value", 30)
		return r.Snapshot()
	}
	want := `{"alpha.first":2,"mid.value":30,"zeta.last":1}`
	for i := 0; i < 3; i++ {
		got, err := build().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("run %d: MarshalJSON = %s, want %s", i, got, want)
		}
	}
}
