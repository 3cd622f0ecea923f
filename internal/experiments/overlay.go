package experiments

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// OverlayRow compares object-routing rule schemes under a tiny table
// budget — §3.2: "To scale to larger deployments, we will explore
// hierarchical identifier overlay schemes."
type OverlayRow struct {
	Mode          string
	Objects       int
	RulesPerSw    float64 // object-routing entries actually installed
	InstallFailed int
	Successes     int
	Failures      int
	MeanUS        float64
}

func (r OverlayRow) cells() []any {
	return []any{"mode", r.Mode, "objects", r.Objects, "rules_per_sw", r.RulesPerSw,
		"install_failed", r.InstallFailed, "successes", r.Successes, "failures", r.Failures,
		"mean_us", r.MeanUS}
}

// prefixBits is the overlay allocation granularity: each node owns a
// /16 of the ID space (its station number in the high bits).
const prefixBits = 16

// nodePrefix returns station st's overlay prefix.
func nodePrefix(st wire.StationID) oid.Prefix {
	return oid.MakePrefix(oid.ID{Hi: uint64(st) << 48}, prefixBits)
}

// staticResolver always routes on the object ID (rules are static).
type staticResolver struct{}

func (staticResolver) Resolve(_ oid.ID, cb func(discovery.Result, error)) {
	cb(discovery.Result{RouteOnObject: true, CacheHit: true}, nil)
}
func (r staticResolver) ResolveCtx(obj oid.ID, _ trace.Ctx, cb func(discovery.Result, error)) {
	r.Resolve(obj, cb)
}
func (staticResolver) Invalidate(oid.ID) {}
func (staticResolver) Announce(oid.ID)   {}
func (staticResolver) Withdraw(oid.ID)   {}
func (staticResolver) Reset()            {}

// AblationOverlay gives every switch an object table that only holds
// ~8 entries, then routes numObjects objects per owner two ways:
//
//   - exact: one rule per object (the §4 prototype's scheme) — rules
//     beyond capacity fail to install and those objects' frames drop;
//   - overlay: objects are allocated inside their owner's /16 prefix
//     and each switch carries one shard-route rule per owner, the
//     sharded scheme's ternary prefix rule, in a filter table of the
//     same budget — constant rule count regardless of object count.
func AblationOverlay(seed int64, numObjects int) ([]OverlayRow, error) {
	return sweep([]string{"exact", "overlay"}, func(mode string) (OverlayRow, error) {
		return overlayRun(seed, mode, numObjects)
	})
}

func overlayRun(seed int64, mode string, numObjects int) (OverlayRow, error) {
	gen := oid.NewSeededGenerator(seed + 1)
	// tableMemory holds ~8 exact 128-bit entries (see AblationHybrid),
	// and exactly two of the filter table's 96-byte six-field ternary
	// entries: one per owner prefix.
	const tableMemory = 300
	swCfg := p4sim.SwitchConfig{ObjectTableMemory: tableMemory}
	f, err := newStarFabric(seed, swCfg, swCfg, transport.Config{RequestTimeout: 500 * netsim.Microsecond})
	if err != nil {
		return OverlayRow{}, err
	}
	sim, switches := f.sim, f.switches
	stores := make([]*store.Store, len(f.eps))
	nodes := make([]*coherence.Node, len(f.eps))
	for i, ep := range f.eps {
		stores[i] = store.New(0)
		nd := coherence.NewNode(ep, stores[i], staticResolver{})
		ep.SetHandler(func(h *wire.Header, p []byte) { nd.HandleFrame(h, p) })
		nodes[i] = nd
	}

	// portToward is switch si's port toward node idx: the core (si 0)
	// has one port per leaf, a leaf its host on 1 and the uplink on 0.
	portToward := func(si, idx int) int {
		switch {
		case si == 0:
			return idx
		case si-1 == idx:
			return 1
		}
		return 0
	}

	// Station routes so replies unicast (out of band, as a controller
	// would program them).
	for st := 1; st <= 3; st++ {
		for si, sw := range switches {
			if err := sw.InstallStationRoute(wire.StationID(st), portToward(si, st-1)); err != nil {
				return OverlayRow{}, err
			}
		}
	}

	// Objects live on nodes 2 and 3 (stations 2, 3); node 1 reads.
	installFailed := 0
	var objs []oid.ID
	for i := 0; i < numObjects; i++ {
		ownerIdx := 1 + i%2
		ownerSt := wire.StationID(ownerIdx + 1)
		var id oid.ID
		if mode == "overlay" {
			id = gen.NewInPrefix(nodePrefix(ownerSt))
		} else {
			id = gen.New()
		}
		o, err := object.New(id, 2048, 4)
		if err != nil {
			return OverlayRow{}, err
		}
		if _, err := o.AllocString("payload"); err != nil {
			return OverlayRow{}, err
		}
		if err := stores[ownerIdx].Put(o, 1, true); err != nil {
			return OverlayRow{}, err
		}
		objs = append(objs, id)

		if mode == "exact" {
			// One rule per object on every switch, toward the owner.
			for si, sw := range switches {
				if err := sw.InstallObjectRoute(wire.ValueOfID(id), portToward(si, ownerIdx)); err != nil {
					installFailed++
				}
			}
		}
	}
	if mode == "overlay" {
		// One rule per owner prefix on every switch.
		for si, sw := range switches {
			ft, err := discovery.NewFilterTable(sw.DevName()+"/overlay", p4sim.TableConfig{MemoryBytes: tableMemory})
			if err != nil {
				return OverlayRow{}, err
			}
			sw.SetFilterTable(ft)
			for _, ownerIdx := range []int{1, 2} {
				route := discovery.ShardRoute{
					Prefix: nodePrefix(wire.StationID(ownerIdx + 1)),
					Action: p4sim.Action{Type: p4sim.ActForward, Port: portToward(si, ownerIdx)},
				}
				if err := discovery.InstallShardRoute(ft, route); err != nil {
					installFailed++
				}
			}
		}
	}

	// Node 1 reads every object once.
	succ, fail := 0, 0
	var total netsim.Duration
	reader := nodes[0]
	finished := workload.Loop(sim, len(objs), 0, func(i int, next func()) {
		start := sim.Now()
		reader.ReadAt(objs[i], object.HeaderSize+4*object.FOTEntrySize+8, 7).Then(func(_ []byte, err error) {
			if err == nil {
				succ++
				total += sim.Now().Sub(start)
			} else {
				fail++
			}
			next()
		})
	})
	sim.Run()
	if !finished() {
		return OverlayRow{}, fmt.Errorf("access loop stalled")
	}

	var rules int
	for _, sw := range switches {
		rules += sw.ObjectTable().Len()
		if ft := sw.FilterTable(); ft != nil {
			rules += ft.Len()
		}
	}
	mean := 0.0
	if succ > 0 {
		mean = us(total) / float64(succ)
	}
	return OverlayRow{
		Mode:          mode,
		Objects:       numObjects,
		RulesPerSw:    float64(rules) / float64(len(switches)),
		InstallFailed: installFailed,
		Successes:     succ,
		Failures:      fail,
		MeanUS:        mean,
	}, nil
}

// starFabric is A6's topology, built without a cluster: a
// core switch with three leaf switches, one host per leaf at station
// i+1, every link 5 µs at 10 Gb/s.
type starFabric struct {
	sim      *netsim.Sim
	switches []*p4sim.Switch // the core, then the leaves
	eps      []*transport.Endpoint
}

func newStarFabric(seed int64, coreCfg, leafCfg p4sim.SwitchConfig, tc transport.Config) (*starFabric, error) {
	sim := netsim.NewSim(seed)
	net := netsim.NewNetwork(sim)
	link := netsim.LinkConfig{Latency: 5 * netsim.Microsecond, BitsPerSec: 10_000_000_000}
	coreSw, err := p4sim.NewSwitch(net, "core", 3, coreCfg)
	if err != nil {
		return nil, err
	}
	f := &starFabric{sim: sim, switches: []*p4sim.Switch{coreSw}}
	for i := 0; i < 3; i++ {
		leaf, err := p4sim.NewSwitch(net, fmt.Sprintf("leaf%d", i), 2, leafCfg)
		if err != nil {
			return nil, err
		}
		if err := net.Connect(coreSw, i, leaf, 0, link); err != nil {
			return nil, err
		}
		f.switches = append(f.switches, leaf)
		h, err := netsim.NewHost(net, fmt.Sprintf("h%d", i))
		if err != nil {
			return nil, err
		}
		if err := net.Connect(h, 0, leaf, 1, link); err != nil {
			return nil, err
		}
		f.eps = append(f.eps, transport.NewEndpoint(h, wire.StationID(i+1), tc))
	}
	return f, nil
}
