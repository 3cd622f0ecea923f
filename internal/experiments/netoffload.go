package experiments

import (
	"encoding/binary"
	"fmt"

	"repro/internal/inc"
	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// SeqRow compares sequencer implementations (§5: offloading
// synchronization and arbitration to the programmable network).
type SeqRow struct {
	Mode        string
	Ops         int
	MeanUS      float64
	P99US       float64
	UniqueDense bool
}

func (r SeqRow) cells() []any {
	return []any{"mode", r.Mode, "ops", r.Ops, "mean_us", r.MeanUS, "p99_us", r.P99US,
		"unique_dense", r.UniqueDense}
}

// starFabric is A5's and A6's topology, built without a cluster: a
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

// AblationNetSeq issues opsPerClient sequencer tickets from each of
// two clients, against (a) an RPC counter service on the third host
// and (b) a register service in the core switch. Tickets must come
// out unique and dense either way; the in-switch service answers in
// half the hops with no server on the path.
func AblationNetSeq(seed int64, opsPerClient int) ([]SeqRow, error) {
	return sweep([]string{"host-rpc", "in-switch"}, func(mode string) (SeqRow, error) {
		f, err := newStarFabric(seed, p4sim.SwitchConfig{Station: 900}, p4sim.SwitchConfig{LearnStations: true},
			transport.Config{})
		if err != nil {
			return SeqRow{}, err
		}
		hist := telemetry.NewHistogram()
		tickets := map[uint64]int{}
		issued := 0

		// ticket draws one sequence number for client ci.
		var ticket func(ci int, cb func(uint64, error))
		switch mode {
		case "host-rpc":
			// The third host runs a counter service.
			var counter uint64
			srv := rpc.NewServer(f.eps[2])
			srv.Register("seq.next", func([]byte) ([]byte, error) {
				out := make([]byte, 8)
				binary.BigEndian.PutUint64(out, counter)
				counter++
				return out, nil
			})
			f.eps[2].SetHandler(func(h *wire.Header, p []byte) { srv.HandleFrame(h, p) })
			clients := []*rpc.Client{rpc.NewClient(f.eps[0]), rpc.NewClient(f.eps[1])}
			f.eps[0].SetHandler(func(h *wire.Header, p []byte) { clients[0].HandleFrame(h, p) })
			f.eps[1].SetHandler(func(h *wire.Header, p []byte) { clients[1].HandleFrame(h, p) })
			ticket = func(ci int, cb func(uint64, error)) {
				clients[ci].Call(3, "seq.next", nil, func(res []byte, err error) {
					if err != nil {
						cb(0, err)
						return
					}
					cb(binary.BigEndian.Uint64(res), nil)
				})
			}
		case "in-switch":
			serviceID := oid.NewSeededGenerator(seed + 7).New()
			toward := map[*p4sim.Switch]int{}
			for _, leaf := range f.switches[1:] {
				toward[leaf] = 0
			}
			if _, err := inc.InstallRegisters(serviceID, f.switches[0], 1, toward); err != nil {
				return SeqRow{}, err
			}
			clients := []*inc.Client{
				inc.NewClient(f.eps[0], serviceID),
				inc.NewClient(f.eps[1], serviceID),
			}
			ticket = func(ci int, cb func(uint64, error)) { clients[ci].FetchAdd(0, 1, cb) }
		}

		// Each client draws its tickets in a closed loop.
		for ci := 0; ci < 2; ci++ {
			workload.Loop(f.sim, opsPerClient, 0, func(_ int, next func()) {
				start := f.sim.Now()
				ticket(ci, func(v uint64, err error) {
					if err != nil {
						return
					}
					tickets[v]++
					issued++
					hist.Observe(us(f.sim.Now().Sub(start)))
					next()
				})
			})
		}
		f.sim.Run()

		want := 2 * opsPerClient
		dense := issued == want
		for v, n := range tickets {
			if n != 1 || v >= uint64(want) {
				dense = false
			}
		}
		s := hist.Summarize()
		return SeqRow{
			Mode:        mode,
			Ops:         issued,
			MeanUS:      s.Mean,
			P99US:       s.P99,
			UniqueDense: dense,
		}, nil
	})
}
