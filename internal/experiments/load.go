package experiments

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// loadRates is E9's offered-load ladder, in ops/s.
var loadRates = []float64{2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000}

// LoadSweep is experiment E9: ramp Poisson offered load against E2E
// and Controller discovery and locate each scheme's saturation knee.
// Links are deliberately slow (100 Mb/s) so the driver's access link
// saturates at rates the virtual clock sweeps in milliseconds; past
// the knee, request timeouts trigger coherence retries and goodput
// collapses while intended-start latency accounting blows up the
// tail — exactly the signature the knee detector keys on.
func LoadSweep(seed int64) (*workload.Report, error) {
	return workload.Sweep(loadConfig(seed, loadRates))
}

// loadConfig is E9's sweep over a ladder the caller chooses.
func loadConfig(seed int64, rates []float64) workload.SweepConfig {
	return workload.SweepConfig{
		Seed:           seed,
		Schemes:        []core.Scheme{core.SchemeE2E, core.SchemeController},
		Rates:          rates,
		Arrival:        workload.ArrivalConfig{Kind: workload.ArrivalPoisson},
		Mix:            workload.Mix{ColdFrac: 0.02},
		Keys:           workload.KeyConfig{Dist: workload.KeyZipf, Population: 128},
		Cluster:        core.Config{NumNodes: 3, LinkBitsPerSec: 100_000_000},
		Warmup:         10 * netsim.Millisecond,
		Measure:        50 * netsim.Millisecond,
		MaxOutstanding: 512,
		Target:         workload.ClusterConfig{WarmPool: 64, ColdPool: 256},
	}
}
