package experiments

import (
	"repro/internal/netsim"
	"repro/internal/workload"
)

// E15 (hotpath): what batched delivery buys, measured. The E9
// saturation sweep runs twice at the SAME simulated link speed with a
// nonzero per-wakeup host receive cost, once with per-frame delivery
// and once with batched (doorbell-coalesced) delivery. Batching
// amortizes the wakeup cost across every frame that lands while a
// doorbell is pending, so the saturation knee moves right. (The
// allocation budgets of the path the sweep loads are gates of their
// own: workload.TestE2EAllocGates and the BenchmarkWorkload_E2E* pair.)

// HotpathReport is the E15 artifact (BENCH_hotpath.json). GeneratedAt
// is stamped by the caller after the run; both sweeps are virtual-time
// deterministic.
type HotpathReport struct {
	workload.ReportHeader

	// Knee sweep: identical ladder, link speed, and receive cost on
	// both sides; only the delivery mode differs.
	LinkBitsPerSec int64                `json:"link_bits_per_sec"`
	HostRxCostUS   float64              `json:"host_rx_cost_us"`
	Unbatched      workload.SchemeSweep `json:"unbatched"`
	Batched        workload.SchemeSweep `json:"batched"`
	// KneeMovedRight: the batched knee sits strictly right of the
	// unbatched knee on the shared rate ladder.
	KneeMovedRight bool `json:"knee_moved_right"`
}

// Sweep geometry: a fast link (so serialization is not the binding
// constraint) with a deliberately expensive per-wakeup receive cost.
// Unbatched, the driver's receive context caps out at
// 1/hotpathRxCost wakeups per second; batched, arrivals landing
// behind a pending doorbell ride along free and the cap disappears.
const (
	hotpathLinkBPS = 1_000_000_000
	hotpathRxCost  = 20 * netsim.Microsecond
)

// hotpathRates is the shared offered-load ladder, in ops/s.
var hotpathRates = []float64{8_000, 16_000, 32_000, 64_000, 96_000, 128_000}

// hotpath runs E15 over a ladder the caller chooses: the
// batched-vs-unbatched knee sweep at identical link speed. seed drives
// the cluster layout and the sweep generators.
func hotpath(seed int64, rates []float64) (*HotpathReport, error) {
	sides, err := sweep([]bool{false, true}, func(batched bool) (workload.SchemeSweep, error) {
		// E9's sweep on the E2E scheme alone, over fewer keys and a
		// shorter window, at hotpathLinkBPS and hotpathRxCost.
		cfg := loadConfig(seed, rates)
		cfg.Schemes = cfg.Schemes[:1]
		cfg.Runner.Keys.Population, cfg.Target.WarmPool = 48, 24
		cfg.Runner.Warmup, cfg.Runner.Measure = 5*netsim.Millisecond, 30*netsim.Millisecond
		cfg.Cluster.LinkBitsPerSec = hotpathLinkBPS
		cfg.Cluster.Fabric = netsim.FabricConfig{HostRxCost: hotpathRxCost, BatchDelivery: batched}
		rep, err := workload.Sweep(cfg)
		if err != nil {
			return workload.SchemeSweep{}, err
		}
		return rep.Schemes[0], nil
	})
	if err != nil {
		return nil, err
	}
	return &HotpathReport{
		ReportHeader:   workload.ReportHeader{SchemaVersion: 1, Seed: seed},
		LinkBitsPerSec: hotpathLinkBPS,
		HostRxCostUS:   hotpathRxCost.Microseconds(),
		Unbatched:      sides[0],
		Batched:        sides[1],
		KneeMovedRight: sides[1].Knee.Index > sides[0].Knee.Index,
	}, nil
}

// hotpathRow is one E15 rung, per-frame or batched.
type hotpathRow struct {
	delivery string
	workload.Point
}

func (r hotpathRow) cells() []any {
	return []any{"delivery", r.delivery, "offered_ops", fixed(0, r.OfferedPerSec),
		"completed", r.Completed, "failed", r.Failed, "p99_us", r.P99US}
}
