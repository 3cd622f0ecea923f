package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/object"
	"repro/internal/oid"
)

var gen = oid.NewSeededGenerator(23)

func TestNewRandomDeterministic(t *testing.T) {
	a := NewRandom(7, 100, 8)
	b := NewRandom(7, 100, 8)
	if a.Infer(a.Features()) != b.Infer(b.Features()) {
		t.Fatal("same seed, different models")
	}
	if len(a.Buckets) != 100 || a.Dim != 8 {
		t.Fatalf("shape: %d buckets dim %d", len(a.Buckets), a.Dim)
	}
	// Sorted, unique features.
	for i := 1; i < len(a.Buckets); i++ {
		if a.Buckets[i-1].Feature >= a.Buckets[i].Feature {
			t.Fatal("features not sorted/unique")
		}
	}
}

func TestInferMissingFeatures(t *testing.T) {
	m := NewRandom(1, 10, 4)
	if m.Infer([]uint64{math.MaxUint64}) != 0 {
		t.Fatal("absent feature contributed")
	}
	if m.Infer(nil) != 0 {
		t.Fatal("empty activation nonzero")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := NewRandom(3, 50, 16)
	raw := m.Marshal()
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Dim != m.Dim || len(got.Buckets) != len(m.Buckets) {
		t.Fatal("shape mismatch")
	}
	feats := m.Features()
	if got.Infer(feats) != m.Infer(feats) {
		t.Fatal("inference differs after round trip")
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	m := NewRandom(3, 10, 4)
	raw := m.Marshal()
	for _, cut := range []int{0, 1, 5, len(raw) / 2, len(raw) - 1} {
		if _, err := Unmarshal(raw[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

func TestObjectViewMatchesHeapModel(t *testing.T) {
	m := NewRandom(5, 200, 12)
	o, err := BuildObject(gen.New(), m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := LoadView(o)
	if err != nil {
		t.Fatal(err)
	}
	if v.Dim() != m.Dim || v.NumBuckets() != len(m.Buckets) {
		t.Fatalf("view shape: dim=%d nb=%d", v.Dim(), v.NumBuckets())
	}
	feats := m.Features()
	if got, want := v.Infer(feats), m.Infer(feats); got != want {
		t.Fatalf("view Infer = %v, heap = %v", got, want)
	}
	// Partial activations, including misses.
	acts := [][]uint64{
		feats[:3], feats[len(feats)-3:], {feats[0], math.MaxUint64}, nil,
	}
	for _, a := range acts {
		if v.Infer(a) != m.Infer(a) {
			t.Fatalf("view/heap disagree on %v", a)
		}
	}
	// Every feature is found where the table says it is, one at a time.
	for _, f := range feats {
		if v.Infer([]uint64{f}) != m.Infer([]uint64{f}) {
			t.Fatalf("view/heap disagree on feature %d", f)
		}
	}
}

func TestViewSurvivesByteCopy(t *testing.T) {
	// The §3.1 claim: moving the object is a byte copy; the view works
	// immediately on the moved bytes with no fixup.
	m := NewRandom(9, 100, 8)
	o, err := BuildObject(gen.New(), m)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := object.FromBytes(o.ID(), o.CloneBytes())
	if err != nil {
		t.Fatal(err)
	}
	v, err := LoadView(moved)
	if err != nil {
		t.Fatal(err)
	}
	feats := m.Features()
	if v.Infer(feats) != m.Infer(feats) {
		t.Fatal("moved view differs")
	}
}

func TestLoadViewRejectsGarbage(t *testing.T) {
	o, err := object.New(gen.New(), 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadView(o); err == nil {
		t.Fatal("LoadView accepted empty object")
	}
}

func TestPartitionedCoversModel(t *testing.T) {
	m := NewRandom(11, 120, 8)
	p, err := BuildPartitioned(gen, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) != 4 {
		t.Fatalf("shards = %d", len(p.Shards))
	}
	rv, err := LoadRootView(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	if rv.NumShards() != 4 {
		t.Fatalf("NumShards = %d", rv.NumShards())
	}
	// The root's FOT must reference every shard (reachability graph).
	reach := map[oid.ID]bool{}
	for _, id := range p.Root.Reachable() {
		reach[id] = true
	}
	for _, s := range p.Shards {
		if !reach[s.ID()] {
			t.Fatalf("shard %s not reachable from root", s.ID().Short())
		}
	}
	// Every feature maps to the shard that contains it, and summing
	// per-shard inference equals whole-model inference.
	shardByID := map[oid.ID]*object.Object{}
	for _, s := range p.Shards {
		shardByID[s.ID()] = s
	}
	feats := m.Features()
	groups, err := rv.GroupByShard(feats)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for id, fs := range groups {
		v, err := LoadView(shardByID[id])
		if err != nil {
			t.Fatal(err)
		}
		total += v.Infer(fs)
	}
	want := m.Infer(feats)
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("sharded inference %v != %v", total, want)
	}
}

func TestShardForMiss(t *testing.T) {
	m := NewRandom(13, 40, 4)
	p, err := BuildPartitioned(gen, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	rv, _ := LoadRootView(p.Root)
	if _, err := rv.ShardFor(math.MaxUint64); err == nil {
		t.Fatal("ShardFor matched out-of-range feature")
	}
	if rv.NumShards() != 2 {
		t.Fatalf("NumShards = %d", rv.NumShards())
	}
}

func TestBuildPartitionedValidation(t *testing.T) {
	m := NewRandom(1, 10, 4)
	if _, err := BuildPartitioned(gen, m, 0); err == nil {
		t.Fatal("accepted 0 shards")
	}
	if _, err := BuildPartitioned(gen, m, 11); err == nil {
		t.Fatal("accepted more shards than buckets")
	}
}

func TestPropertyViewMatchesHeap(t *testing.T) {
	m := NewRandom(21, 64, 6)
	o, err := BuildObject(gen.New(), m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := LoadView(o)
	if err != nil {
		t.Fatal(err)
	}
	feats := m.Features()
	f := func(picks []uint16) bool {
		act := make([]uint64, 0, len(picks))
		for _, p := range picks {
			if int(p)%2 == 0 {
				act = append(act, feats[int(p)%len(feats)])
			} else {
				act = append(act, uint64(p)) // mostly misses
			}
		}
		return v.Infer(act) == m.Infer(act)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapDeserializeLoad(b *testing.B) {
	m := NewRandom(2, 2000, 32)
	raw := m.Marshal()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObjectByteCopyLoad(b *testing.B) {
	m := NewRandom(2, 2000, 32)
	o, err := BuildObject(gen.New(), m)
	if err != nil {
		b.Fatal(err)
	}
	raw := o.CloneBytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := make([]byte, len(raw))
		copy(buf, raw)
		mo, err := object.FromBytes(o.ID(), buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := LoadView(mo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewInfer(b *testing.B) {
	m := NewRandom(2, 2000, 32)
	o, _ := BuildObject(gen.New(), m)
	v, _ := LoadView(o)
	feats := m.Features()[:64]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Infer(feats)
	}
}
