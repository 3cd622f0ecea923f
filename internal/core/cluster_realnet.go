package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/dataplane"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/placement"
	"repro/internal/realnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// newRealnetCluster builds the same node stack as newSimCluster over
// localhost UDP sockets: no switches, no controller, a full mesh of
// per-node sockets routed on the wire destination station. Only the
// E2E discovery scheme works (it is destination-routed; the
// controller schemes program a fabric that does not exist here), and
// sim-only machinery (loss injection, the invariant checker, every
// knob that acts on the simulated NIC or switches) is refused up front
// by name rather than ignored or left to misbehave.
func newRealnetCluster(cfg Config) (*Cluster, error) {
	if cfg.Scheme != SchemeE2E {
		return nil, fmt.Errorf("core: realnet backend supports only the e2e discovery scheme (got %s): controller schemes program simulated switch tables", cfg.Scheme)
	}
	if cfg.DropRate != 0 {
		return nil, fmt.Errorf("core: realnet backend cannot inject link loss (DropRate=%v); real sockets drop on their own terms", cfg.DropRate)
	}
	for _, k := range []struct {
		set   bool
		field string
	}{
		{cfg.BatchDelivery, "BatchDelivery"},
		{cfg.HostRxCost != 0, "HostRxCost"},
		{cfg.Inc.Enabled(), "Inc"},
		{cfg.TableEviction != p4sim.EvictNone, "TableEviction"},
		{cfg.ObjectMiss != p4sim.MissDrop, "ObjectMiss"},
	} {
		if k.set {
			return nil, fmt.Errorf("core: %s is sim-only (it configures the simulated NIC and switches, which the realnet backend does not have); leave it unset", k.field)
		}
	}

	// Wall-clock runs see kernel scheduling jitter the sim's 5µs-scale
	// defaults were never meant for: where the caller left timeouts at
	// their defaults, substitute realnet-scale ones. Explicit settings
	// are honored.
	if cfg.Transport.RetransmitTimeout == 0 {
		cfg.Transport.RetransmitTimeout = 2 * backend.Millisecond
	}
	if cfg.Transport.RetryBudget == 0 {
		cfg.Transport.RetryBudget = 250 * backend.Millisecond
	}
	if cfg.Transport.RequestTimeout == 0 {
		cfg.Transport.RequestTimeout = 50 * backend.Millisecond
	}
	if cfg.DiscoveryTimeout == 0 {
		cfg.DiscoveryTimeout = 50 * backend.Millisecond
	}

	rn := realnet.NewCluster()
	c := &Cluster{
		cfg:       cfg,
		rn:        rn,
		Clock:     rn.Clock(),
		gen:       oid.NewSeededGenerator(cfg.Seed + 1),
		meta:      make(map[oid.ID]*objMeta),
		Placement: placement.NewEngine(),
	}
	// Ring groups work here too: co-located nodes are really one
	// process, so same-group frames skip the kernel's UDP path through
	// the same SPSC rings the simulator models — with zero modeled
	// delay, because the handoff is real. Drains run under the cluster
	// upcall lock (Clock().Schedule), preserving the rings' single-
	// threaded contract.
	rings, err := buildRingGroups(&cfg, 0)
	if err != nil {
		rn.Close()
		return nil, err
	}
	for i := 0; i < cfg.NumNodes; i++ {
		st := wire.StationID(i + 1)
		link, err := rn.NewLink(fmt.Sprintf("node%d", i), st)
		if err != nil {
			rn.Close()
			return nil, err
		}
		var nodeLink backend.Link = link
		var rl *dataplane.RingLink
		if g := rings[i]; g != nil {
			rl = g.Join(st, link)
			nodeLink = rl
		}
		n, err := newNode(c, nodeLink, st)
		if err != nil {
			rn.Close()
			return nil, err
		}
		n.Ring = rl
		c.Nodes = append(c.Nodes, n)
	}
	c.Tracer = trace.NewRecorder(c.Clock, cfg.Trace)
	for _, n := range c.Nodes {
		n.initResolver(cfg)
	}
	rn.Start()
	return c, nil
}
