package experiments

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// loadRates is E9's offered-load ladder, in ops/s.
var loadRates = []float64{2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000}

// loadConfig is experiment E9 over a ladder the caller chooses: ramp
// Poisson offered load against E2E and Controller discovery and locate
// each scheme's saturation knee. Links are deliberately slow (100 Mb/s)
// so the driver's access link saturates at rates the virtual clock
// sweeps in milliseconds; past the knee, request timeouts trigger
// coherence retries and goodput collapses while intended-start latency
// accounting blows up the tail — exactly the signature the knee
// detector keys on.
func loadConfig(seed int64, rates []float64) workload.SweepConfig {
	return workload.SweepConfig{
		Seed:    seed,
		Schemes: []core.Scheme{core.SchemeE2E, core.SchemeController},
		Rates:   rates,
		Runner: workload.Config{
			Arrival:        workload.ArrivalConfig{Kind: workload.ArrivalPoisson},
			Mix:            workload.Mix{ColdFrac: 0.02},
			Keys:           workload.KeyConfig{Dist: workload.KeyZipf, Population: 128},
			Warmup:         10 * netsim.Millisecond,
			Measure:        50 * netsim.Millisecond,
			MaxOutstanding: 512,
		},
		Cluster: core.Config{NumNodes: 3, LinkBitsPerSec: 100_000_000},
		Target:  workload.ClusterConfig{WarmPool: 64, ColdPool: 256},
	}
}

// loadRow is one E9 rung as its table prints it.
type loadRow struct{ workload.Point }

func (r loadRow) cells() []any {
	return []any{"offered_ops", fixed(0, r.OfferedPerSec), "goodput_ops", fixed(0, r.GoodputPerSec),
		"completed", r.Completed, "failed", r.Failed, "queued", r.Queued, "p50_us", r.P50US,
		"p99_us", r.P99US, "p999_us", r.P999US, "frames", r.FramesSent}
}
