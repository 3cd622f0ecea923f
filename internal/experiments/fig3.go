package experiments

import (
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fig3Config parameterizes the Figure 3 reproduction, which sweeps
// Figure 2's access workload over the percentage of accesses to moved
// objects.
type Fig3Config = Fig2Config

// Fig3Row is one sweep point of Figure 3: E2E access time as the
// destination cache grows stale due to object movement.
type Fig3Row struct {
	PctMoved int

	MeanUS   float64
	P50US    float64
	P90US    float64
	P99US    float64
	StddevUS float64

	// StaleRetriesPerAccess counts NACK→rediscover→retry cycles.
	StaleRetriesPerAccess float64
	// BroadcastsPer100 counts rediscovery broadcasts.
	BroadcastsPer100 float64
}

func (r Fig3Row) cells() []any {
	return []any{"pct_moved", r.PctMoved, "mean_us", r.MeanUS, "p50_us", r.P50US, "p90_us", r.P90US,
		"p99_us", r.P99US, "sd_us", r.StddevUS, "stale_per_acc", fixed(2, r.StaleRetriesPerAccess),
		"bcast_per_100acc", r.BroadcastsPer100}
}

// Figure3 sweeps the fraction of accesses that target objects that
// moved since the driver's destination cache learned them (§4,
// Figure 3, E2E scheme only). A stale access reaches the old home,
// gets a NACK, rebroadcasts discovery, and retries — rising from 1
// round trip toward the multi-RTT stale path, with variability
// peaking mid-sweep and collapsing once staleness saturates.
func Figure3(cfg Fig3Config) ([]Fig3Row, error) {
	return sweep(cfg.Points, func(pct int) (Fig3Row, error) { return fig3Point(cfg, pct) })
}

func fig3Point(cfg Fig3Config, pctMoved int) (Fig3Row, error) {
	c, err := core.NewCluster(core.Config{
		Seed:   cfg.Seed + int64(pctMoved)*1000,
		Scheme: core.SchemeE2E,
	})
	if err != nil {
		return Fig3Row{}, err
	}
	driver := c.Node(0)
	respA, respB := c.Node(1), c.Node(2)

	pool, err := workload.Populate([]*core.Node{respA, respB}, accessPool, accessObjectSize)
	if err != nil {
		return Fig3Row{}, err
	}
	c.Run()

	// Warm the destination cache.
	if err := warmReads(driver, pool, accessReadBytes); err != nil {
		return Fig3Row{}, err
	}

	hist := telemetry.NewHistogram()
	rng := c.Sim.Rand()
	staleBase := driver.Coherence.Counters().StaleRetries
	bcastBase := driver.EP.Counters().Broadcasts

	err = workload.RunToCompletion(c, cfg.AccessesPerPoint, 0, func(i int, next func()) {
		obj := pool[rng.Intn(len(pool))].ID()
		if rng.Intn(100) < pctMoved {
			// Move the object to whichever responder does not hold
			// it; the driver's cached destination goes stale.
			from, to := respA, respB
			if !from.Store.Contains(obj) {
				from, to = respB, respA
			}
			if err := c.MoveObject(obj, from, to); err != nil {
				return
			}
		}
		start := c.Sim.Now()
		driver.Coherence.ReadAt(obj, 0, accessReadBytes).Then(func(_ []byte, err error) {
			if err != nil {
				return
			}
			hist.Observe(us(c.Sim.Now().Sub(start)))
			next()
		})
	})
	if err != nil {
		return Fig3Row{}, err
	}

	s := hist.Summarize()
	return Fig3Row{
		PctMoved: pctMoved,
		MeanUS:   s.Mean,
		P50US:    s.P50,
		P90US:    s.P90,
		P99US:    s.P99,
		StddevUS: s.Stddev,
		StaleRetriesPerAccess: float64(driver.Coherence.Counters().StaleRetries-staleBase) /
			float64(cfg.AccessesPerPoint),
		BroadcastsPer100: float64(driver.EP.Counters().Broadcasts-bcastBase) * 100 /
			float64(cfg.AccessesPerPoint),
	}, nil
}
