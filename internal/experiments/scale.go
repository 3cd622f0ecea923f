package experiments

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// ScaleRow quantifies the state-vs-traffic tradeoff between the two
// discovery schemes as the deployment grows (§4: "The E2E scheme is
// potentially more scalable [in switch state], but has worst-case
// latency of 2 RTTs ... while the controller scheme has uniform
// latency of 1 RTT ... however, memory constraints may impose limits
// at the switch").
type ScaleRow struct {
	Scheme string
	Nodes  int
	// ObjectRules counts object-table entries across all switches
	// (controller state grows with objects; E2E installs none).
	ObjectRules int
	// FabricFramesPerAccess is total frame deliveries per access —
	// E2E broadcasts touch every host, so this grows with N.
	FabricFramesPerAccess float64
	// MeanUS is the access latency.
	MeanUS float64
}

func (r ScaleRow) cells() []any {
	return []any{"scheme", r.Scheme, "nodes", r.Nodes, "object_rules", r.ObjectRules,
		"fabric_frames_per_acc", r.FabricFramesPerAccess, "mean_us", r.MeanUS}
}

// ScaleConfig parameterizes the sweep.
type ScaleConfig struct {
	Seed       int64
	NodeCounts []int
	Accesses   int
}

// ScaleTradeoff sweeps cluster size under a cold-object workload
// (every access is a first touch, the worst case for E2E): broadcast
// traffic grows with the host count under E2E, while the controller
// scheme stays unicast at the cost of per-object switch state.
func ScaleTradeoff(cfg ScaleConfig) ([]ScaleRow, error) {
	return sweep(grid(cfg.NodeCounts, []core.Scheme{core.SchemeE2E, core.SchemeController}),
		func(p pair[int, core.Scheme]) (ScaleRow, error) { return scalePoint(cfg, p.b, p.a) })
}

func scalePoint(cfg ScaleConfig, scheme core.Scheme, nodes int) (ScaleRow, error) {
	leaves := 3
	if nodes > 9 {
		leaves = 9
	}
	c, err := core.NewCluster(core.Config{
		Seed:     cfg.Seed + int64(nodes)*100 + int64(scheme),
		Scheme:   scheme,
		NumNodes: nodes,
		Fabric:   netsim.FabricConfig{Leaves: leaves},
	})
	if err != nil {
		return ScaleRow{}, err
	}
	driver := c.Node(0)
	responders := c.Nodes[1:]

	// Cold population: enough objects that every measured access is a
	// first touch at the driver.
	objs, err := workload.Populate(responders, cfg.Accesses, 2048)
	if err != nil {
		return ScaleRow{}, err
	}
	c.Run() // announcements / rule installs
	c.ResetStats()

	var total float64
	count := 0
	err = workload.RunToCompletion(c, cfg.Accesses, 0, func(i int, next func()) {
		start := c.Sim.Now()
		driver.Coherence.ReadAt(objs[i].ID(), 0, 64).Then(func(_ []byte, err error) {
			if err != nil {
				return
			}
			total += us(c.Sim.Now().Sub(start))
			count++
			next()
		})
	})
	if err != nil {
		return ScaleRow{}, err
	}

	rules := 0
	for _, sw := range c.Switches {
		rules += sw.ObjectTable().Len()
	}
	return ScaleRow{
		Scheme:                scheme.String(),
		Nodes:                 nodes,
		ObjectRules:           rules,
		FabricFramesPerAccess: float64(c.Telemetry().Value("net.frames_delivered")) / float64(cfg.Accesses),
		MeanUS:                total / float64(count),
	}, nil
}
