// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure plus the DESIGN.md ablations. Metrics that matter are
// reported via b.ReportMetric (virtual-time latencies, broadcast
// counts) — wall-clock ns/op measures simulator throughput, not the
// system under study. Run:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/oid"
	"repro/internal/placement"
	"repro/internal/wire"
)

// BenchmarkFigure2_E2E_vs_Controller regenerates Figure 2 at three
// sweep points and reports the headline metrics.
func BenchmarkFigure2_E2E_vs_Controller(b *testing.B) {
	var rows []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure2(experiments.Fig2Config{
			Seed:             int64(i + 1),
			AccessesPerPoint: 400,
			Points:           []int{0, 50, 90},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].E2EMeanUS, "e2e-0%new-µs")
	b.ReportMetric(rows[2].E2EMeanUS, "e2e-90%new-µs")
	b.ReportMetric(rows[2].ControllerMeanUS, "ctrl-90%new-µs")
	b.ReportMetric(rows[2].BroadcastsPer100, "bcast/100acc@90%")
}

// BenchmarkFigure3_StaleCache regenerates Figure 3 at three points.
func BenchmarkFigure3_StaleCache(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure3(experiments.Fig3Config{
			Seed:             int64(i + 1),
			AccessesPerPoint: 400,
			Points:           []int{0, 50, 90},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeanUS, "access-0%moved-µs")
	b.ReportMetric(rows[1].StddevUS, "sd-50%moved-µs")
	b.ReportMetric(rows[2].MeanUS, "access-90%moved-µs")
}

// BenchmarkCapacity_TableDensity regenerates the §3.2 switch numbers.
func BenchmarkCapacity_TableDensity(b *testing.B) {
	var rows []experiments.CapacityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Capacity()
	}
	b.ReportMetric(float64(rows[0].ModelCapacity), "entries-64bit")
	b.ReportMetric(float64(rows[1].ModelCapacity), "entries-128bit")
}

// BenchmarkRendezvous_Figure1 regenerates the strategy comparison.
func BenchmarkRendezvous_Figure1(b *testing.B) {
	var rows []experiments.RendezvousRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Rendezvous(experiments.RendezvousConfig{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Strategy {
		case "manual-copy":
			b.ReportMetric(r.CompletionUS, "manual-µs")
		case "manual-copy-optimized":
			b.ReportMetric(r.CompletionUS, "optimized-µs")
		case "automatic-copy":
			b.ReportMetric(r.CompletionUS, "automatic-µs")
		case "dave-local":
			b.ReportMetric(r.CompletionUS, "dave-local-µs")
		}
	}
}

// BenchmarkSerialization_LoadPaths regenerates the §2/§3.1 comparison
// for one model size.
func BenchmarkSerialization_LoadPaths(b *testing.B) {
	var rows []experiments.SerializationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Serialization(experiments.SerializationConfig{
			Sizes:   []experiments.ModelShape{{Buckets: 2000, Dim: 32}},
			Repeats: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].DeserializeUS, "deserialize-µs")
	b.ReportMetric(rows[0].ByteCopyUS, "bytecopy-µs")
	b.ReportMetric(100*rows[0].LoadFractionBaseline, "loadfrac-baseline-%")
}

// BenchmarkAblationPrefetch_Traversal measures the A1 ablation.
func BenchmarkAblationPrefetch_Traversal(b *testing.B) {
	var rows []experiments.PrefetchRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationPrefetch(experiments.PrefetchConfig{
			Seed:     int64(i + 1),
			ChainLen: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].TotalUS, "walk-nopf-µs")
	b.ReportMetric(rows[1].TotalUS, "walk-pf-µs")
}

// BenchmarkAblationLoss_Transport measures the A2 ablation.
func BenchmarkAblationLoss_Transport(b *testing.B) {
	var rows []experiments.LossRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationLoss(int64(i+1), 128<<10, []float64{0, 20})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CompletionUS, "xfer-0%loss-µs")
	b.ReportMetric(rows[1].CompletionUS, "xfer-20%loss-µs")
	b.ReportMetric(float64(rows[1].Retransmits), "retransmits@20%")
}

// BenchmarkScaleTradeoff measures the E7 state-vs-traffic sweep.
func BenchmarkScaleTradeoff(b *testing.B) {
	var rows []experiments.ScaleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ScaleTradeoff(experiments.ScaleConfig{
			Seed:       int64(i + 1),
			NodeCounts: []int{3, 27},
			Accesses:   100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].FabricFramesPerAccess, "e2e-frames/acc@3")
	b.ReportMetric(rows[2].FabricFramesPerAccess, "e2e-frames/acc@27")
	b.ReportMetric(float64(rows[3].ObjectRules), "ctrl-rules@27")
}

// millionIDs is the shared 10^6-object ID population for the scale
// microbenchmarks, generated once per test binary.
var millionIDs = func() []oid.ID {
	gen := oid.NewSeededGenerator(42)
	ids := make([]oid.ID, 1_000_000)
	for i := range ids {
		ids[i] = gen.New()
	}
	return ids
}()

func benchStations(n int) []wire.StationID {
	sts := make([]wire.StationID, n)
	for i := range sts {
		sts[i] = wire.StationID(i + 1)
	}
	return sts
}

// BenchmarkSharder_Map measures shard→home resolution over 10^6
// object IDs — the operation every sharded-scheme access performs in
// place of a discovery broadcast or controller round trip. It must
// stay alloc-free: one allocation per lookup at a million objects is
// a gigabyte of garbage per generation.
func BenchmarkSharder_Map(b *testing.B) {
	s := placement.NewSharder(256, benchStations(104))
	ids := millionIDs
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = s.HomeOf(ids[0])
	}); allocs != 0 {
		b.Fatalf("Sharder.HomeOf allocates %.0f times per op, want 0", allocs)
	}
	b.ResetTimer()
	var sink wire.StationID
	for i := 0; i < b.N; i++ {
		sink ^= s.HomeOf(ids[i%len(ids)])
	}
	_ = sink
	b.ReportMetric(float64(s.Shards()), "shards")
}

// BenchmarkDirectory_Lookup measures sharer lookups against a
// directory tracking 10^6 objects, and pins the compact
// representation's per-object cost. Lookups must not allocate.
func BenchmarkDirectory_Lookup(b *testing.B) {
	d := coherence.NewDirectory()
	ids := millionIDs
	for i, id := range ids {
		d.Add(id, wire.StationID(i%64+1))
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = d.Sharers(ids[0])
		_, _ = d.Epoch(ids[0], 1)
	}); allocs != 0 {
		b.Fatalf("Directory lookup allocates %.0f times per op, want 0", allocs)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += d.Sharers(ids[i%len(ids)])
	}
	_ = sink
	b.ReportMetric(float64(d.Bytes())/float64(d.Len()), "bytes/object")
}

// BenchmarkFaultRecovery_Crash measures E8 recovery from a home-node
// fail-stop (replica promotion path).
func BenchmarkFaultRecovery_Crash(b *testing.B) {
	benchFaultClass(b, experiments.FaultCrash)
}

// BenchmarkFaultRecovery_LinkFlap measures E8 recovery from a 2ms
// link flap (retransmit-backoff path).
func BenchmarkFaultRecovery_LinkFlap(b *testing.B) {
	benchFaultClass(b, experiments.FaultFlap)
}

// BenchmarkFaultRecovery_TableWipe measures E8 recovery from a
// full switch-table wipe (controller repair / relearning path).
func BenchmarkFaultRecovery_TableWipe(b *testing.B) {
	benchFaultClass(b, experiments.FaultWipe)
}

func benchFaultClass(b *testing.B, class experiments.FaultClass) {
	b.Helper()
	var rows []experiments.FaultsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.FaultRecovery(experiments.FaultsConfig{
			Seed:     int64(i + 1),
			Accesses: 120,
			Classes:  []experiments.FaultClass{class},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.RecoveryUS, r.Scheme+"-recovery-µs")
		b.ReportMetric(r.FramesPerAccess, r.Scheme+"-frames/acc")
		b.ReportMetric(float64(r.Failures), r.Scheme+"-failed")
	}
}
