package p4sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// shardFilterTable returns a leaf switch's filter table as wireSharded
// compiles it — 64 shard prefixes aggregated per egress port — and the
// ID of an object one of its rules routes.
func shardFilterTable(b *testing.B) (*p4sim.Table, oid.ID) {
	cl, err := core.NewCluster(core.Config{Seed: 42, NumNodes: 3, Scheme: core.SchemeSharded})
	if err != nil {
		b.Fatal(err)
	}
	id, ok := cl.NewIDHomedAt(cl.Node(1).Station)
	if !ok {
		b.Fatal("node 1 owns no shard")
	}
	return cl.Switches[0].FilterTable(), id
}

// benchLookup times Lookup(h), which must come out as hit says and
// allocate nothing.
func benchLookup(b *testing.B, tbl *p4sim.Table, h *wire.Header, hit bool) {
	lookup := func() {
		if _, ok := tbl.Lookup(h); ok != hit {
			b.Fatalf("Lookup hit=%v, want %v", ok, hit)
		}
	}
	if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
		b.Fatalf("ternary lookup allocates %v/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
}

// BenchmarkTable_TernaryHit is an object-routed request finding its
// shard rule.
func BenchmarkTable_TernaryHit(b *testing.B) {
	tbl, id := shardFilterTable(b)
	benchLookup(b, tbl, &wire.Header{Type: wire.MsgMem, Src: 1, Dst: wire.StationAny,
		Object: id, Flags: wire.FlagRouteOnObject}, true)
}

// BenchmarkTable_TernaryMiss is a station-addressed reply — most
// frames that cross a switch — which matches no shard rule, so a scan
// behind a stale flow-cache slot reads all of them.
func BenchmarkTable_TernaryMiss(b *testing.B) {
	tbl, id := shardFilterTable(b)
	benchLookup(b, tbl, &wire.Header{Type: wire.MsgMem, Src: 2, Dst: 1,
		Object: id, Flags: wire.FlagResponse}, false)
}
