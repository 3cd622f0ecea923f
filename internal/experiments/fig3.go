package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fig3Config parameterizes the Figure 3 reproduction.
type Fig3Config struct {
	Seed             int64
	AccessesPerPoint int
	Points           []int
}

func (c *Fig3Config) fill() {
	if c.Seed == 0 {
		c.Seed = 43
	}
	if c.AccessesPerPoint == 0 {
		c.AccessesPerPoint = 2000
	}
	if len(c.Points) == 0 {
		c.Points = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	}
}

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

// Figure3 sweeps the fraction of accesses that target objects that
// moved since the driver's destination cache learned them (§4,
// Figure 3, E2E scheme only). A stale access reaches the old home,
// gets a NACK, rebroadcasts discovery, and retries — rising from 1
// round trip toward the multi-RTT stale path, with variability
// peaking mid-sweep and collapsing once staleness saturates.
func Figure3(cfg Fig3Config) ([]Fig3Row, error) {
	cfg.fill()
	rows := make([]Fig3Row, 0, len(cfg.Points))
	for _, pct := range cfg.Points {
		row, err := fig3Point(cfg, pct)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", pct, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
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
		driver.ReadRef(object.Global{Obj: obj}, accessReadBytes, func(_ []byte, err error) {
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
