package p4sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// headerProbe is a switch's probe (SetProbe). It checks every pass of
// its switch that routed on a carried header: the frame's own bytes
// must decode, checksum and all, to exactly that header.
type headerProbe struct {
	t       *testing.T
	scratch *wire.Header // the switch's parse target
	carried int
	traced  int // of them, carrying the trace extension
}

func (p *headerProbe) see(h *wire.Header, fr netsim.Frame) {
	if h == p.scratch {
		return
	}
	p.carried++
	if h.Flags&wire.FlagTraced != 0 {
		p.traced++
	}
	var got wire.Header
	if err := got.DecodeFrom(fr); err != nil || got != *h {
		p.t.Fatalf("a switch routed on %+v; the frame decodes to %+v (%v)", *h, got, err)
	}
}

// TestCarriedHeaderIsTheWireHeader runs a seeded mix — reads, writes,
// acquire+release, invokes, cold discoveries, one op in four traced —
// on each discovery scheme's fabric, with a headerProbe on every
// switch.
func TestCarriedHeaderIsTheWireHeader(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeE2E, core.SchemeController, core.SchemeSharded} {
		t.Run(scheme.String(), func(t *testing.T) {
			cl, err := core.NewCluster(core.Config{Seed: 11, Scheme: scheme, Trace: trace.Config{SampleEvery: 4}})
			if err != nil {
				t.Fatal(err)
			}
			tgt, err := workload.NewClusterTarget(cl, workload.ClusterConfig{WarmPool: 16, ColdPool: 16})
			if err != nil {
				t.Fatal(err)
			}
			if err := tgt.Warm(); err != nil {
				t.Fatal(err)
			}
			var probes []*headerProbe
			for _, sw := range cl.Switches {
				p := &headerProbe{t: t, scratch: p4sim.ParseScratch(sw)}
				p4sim.SetProbe(sw, p.see)
				probes = append(probes, p)
			}
			workload.New(cl.Sim, tgt, workload.Config{
				Seed:           11,
				Arrival:        workload.ArrivalConfig{RatePerSec: 100_000},
				Mix:            workload.Mix{ColdFrac: 0.05},
				Measure:        2 * netsim.Millisecond,
				MaxOutstanding: 4,
			}).Start()
			cl.Run()
			carried, traced := 0, 0
			for _, p := range probes {
				carried, traced = carried+p.carried, traced+p.traced
			}
			if carried < 1000 || traced == 0 {
				t.Fatalf("%d switch passes routed on a carried header, %d of them traced; want a mixed run's worth", carried, traced)
			}
		})
	}
}
