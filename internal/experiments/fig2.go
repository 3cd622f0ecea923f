package experiments

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Fig2Config parameterizes the Figure 2 reproduction (and, as
// Fig3Config, Figure 3's).
type Fig2Config struct {
	// Seed drives the deterministic run.
	Seed int64
	// AccessesPerPoint is the number of measured object accesses at
	// each sweep point (2000 at paper scale).
	AccessesPerPoint int
	// Points are the percentages of accesses to new objects (Figure
	// 2) or to moved ones (Figure 3).
	Points []int
}

// Fig2Row is one sweep point of Figure 2: access RTT under both
// discovery schemes plus broadcast load (the figure's right axis).
type Fig2Row struct {
	PctNew int

	ControllerMeanUS float64
	ControllerP99US  float64
	E2EMeanUS        float64
	E2EP99US         float64

	// BroadcastsPer100 counts E2E discovery broadcasts per 100
	// accesses (the controller scheme sends none).
	BroadcastsPer100 float64
}

func (r Fig2Row) cells() []any {
	return []any{"pct_new", r.PctNew, "ctrl_mean_us", r.ControllerMeanUS,
		"ctrl_p99_us", r.ControllerP99US, "e2e_mean_us", r.E2EMeanUS, "e2e_p99_us", r.E2EP99US,
		"bcast_per_100acc", r.BroadcastsPer100}
}

// Figure2 sweeps the fraction of accesses that target newly created
// objects and measures access RTT under the E2E and Controller
// discovery schemes (§4, Figure 2).
//
// The driver (node 0) reads accessReadBytes from objects homed on the
// responder nodes. "Old" objects are pre-created and pre-resolved;
// "new" objects are created on a responder immediately before the
// access, so under E2E the first access pays a broadcast discovery
// (2 RTT total) while under the controller scheme the announcement
// pre-installs switch rules off the access path (uniform 1 RTT).
func Figure2(cfg Fig2Config) ([]Fig2Row, error) {
	return sweep(cfg.Points, func(pct int) (Fig2Row, error) {
		e2eHist, bcasts, err := fig2Point(cfg, core.SchemeE2E, pct)
		if err != nil {
			return Fig2Row{}, err
		}
		ctrlHist, _, err := fig2Point(cfg, core.SchemeController, pct)
		if err != nil {
			return Fig2Row{}, err
		}
		e := e2eHist.Summarize()
		c := ctrlHist.Summarize()
		return Fig2Row{
			PctNew:           pct,
			ControllerMeanUS: c.Mean,
			ControllerP99US:  c.P99,
			E2EMeanUS:        e.Mean,
			E2EP99US:         e.P99,
			BroadcastsPer100: float64(bcasts) * 100 / float64(cfg.AccessesPerPoint),
		}, nil
	})
}

// fig2Point runs one (scheme, pctNew) cell and returns the access-time
// histogram and the driver's broadcast count.
func fig2Point(cfg Fig2Config, scheme core.Scheme, pctNew int) (*telemetry.Histogram, uint64, error) {
	c, err := core.NewCluster(core.Config{
		Seed:   cfg.Seed + int64(pctNew)*1000 + int64(scheme),
		Scheme: scheme,
	})
	if err != nil {
		return nil, 0, err
	}
	driver := c.Node(0)
	responders := c.Nodes[1:]

	// Old population, homed round-robin on responders.
	oldObjs, err := workload.Populate(responders, accessPool, accessObjectSize)
	if err != nil {
		return nil, 0, err
	}
	c.Run() // announcements

	// Warm the driver's destination cache for the old population.
	if err := warmReads(driver, oldObjs, accessReadBytes); err != nil {
		return nil, 0, err
	}

	hist := telemetry.NewHistogram()
	rng := c.Sim.Rand()
	broadcastBase := driver.EP.Counters().Broadcasts

	err = workload.RunToCompletion(c, cfg.AccessesPerPoint, 0, func(i int, next func()) {
		target := oldObjs[rng.Intn(len(oldObjs))].ID()
		isNew := rng.Intn(100) < pctNew
		begin := func() {
			start := c.Sim.Now()
			driver.Coherence.ReadAt(target, 0, accessReadBytes).Then(func(_ []byte, err error) {
				if err != nil {
					return // stall -> surfaced by RunToCompletion
				}
				hist.Observe(us(c.Sim.Now().Sub(start)))
				next()
			})
		}
		if !isNew {
			begin()
			return
		}
		// Create a fresh object on a responder; its announcement
		// (controller rule install, or nothing under E2E) completes
		// off the access path, as at creation time.
		resp := responders[rng.Intn(len(responders))]
		o, err := resp.CreateObject(accessObjectSize)
		if err != nil {
			return
		}
		target = o.ID()
		// Let the announcement settle before the access is issued.
		c.Sim.Schedule(50*netsim.Microsecond, begin)
	})
	if err != nil {
		return nil, 0, err
	}
	return hist, driver.EP.Counters().Broadcasts - broadcastBase, nil
}
