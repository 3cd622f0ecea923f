package experiments

import (
	"repro/internal/core"
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

// hotpathSweep runs the E9-style ladder in one delivery mode.
func hotpathSweep(seed int64, rates []float64, batched bool) (workload.SchemeSweep, error) {
	rep, err := workload.Sweep(workload.SweepConfig{
		Seed:           seed,
		Schemes:        []core.Scheme{core.SchemeE2E},
		Rates:          rates,
		Arrival:        workload.ArrivalConfig{Kind: workload.ArrivalPoisson},
		Mix:            workload.Mix{ColdFrac: 0.02},
		Keys:           workload.KeyConfig{Dist: workload.KeyZipf, Population: 48},
		Warmup:         5 * netsim.Millisecond,
		Measure:        30 * netsim.Millisecond,
		MaxOutstanding: 512,
		Cluster: core.Config{
			NumNodes:       3,
			LinkBitsPerSec: hotpathLinkBPS,
			Fabric:         netsim.FabricConfig{HostRxCost: hotpathRxCost, BatchDelivery: batched},
		},
		Target: workload.ClusterConfig{WarmPool: 24, ColdPool: 256},
	})
	if err != nil {
		return workload.SchemeSweep{}, err
	}
	return rep.Schemes[0], nil
}

// Hotpath runs E15: the batched-vs-unbatched knee sweep at identical
// link speed. seed drives the cluster layout and the sweep generators.
func Hotpath(seed int64) (*HotpathReport, error) { return hotpath(seed, hotpathRates) }

// hotpath is Hotpath over a ladder the caller chooses: the race-detector
// test run stops at the first rung past the per-frame knee.
func hotpath(seed int64, rates []float64) (*HotpathReport, error) {
	rep := &HotpathReport{
		ReportHeader:   workload.ReportHeader{SchemaVersion: 1, Seed: seed},
		LinkBitsPerSec: hotpathLinkBPS,
		HostRxCostUS:   hotpathRxCost.Microseconds(),
	}
	var err error
	if rep.Unbatched, err = hotpathSweep(seed, rates, false); err != nil {
		return nil, err
	}
	if rep.Batched, err = hotpathSweep(seed, rates, true); err != nil {
		return nil, err
	}
	rep.KneeMovedRight = rep.Batched.Knee.Index > rep.Unbatched.Knee.Index
	return rep, nil
}
