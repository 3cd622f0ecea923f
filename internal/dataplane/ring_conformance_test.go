package dataplane_test

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/backend/conformance"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/realnet"
)

// Ring links are a backend.Link implementation in their own right, so
// they must pass the same contract suite the fabric backends do — over
// both inner backends, and including the batch contracts (a ring drain
// is inherently batched: N pushes, one doorbell). Same-group traffic
// here never touches the inner link, so these runs exercise the ring's
// own FIFO, refcount, and MTU behaviour; the cross-group fallback path
// is the inner backend's suite, which already runs elsewhere.

// ringSimFixture wraps two netsim hosts in one co-residence group; the
// one-tick drain delay models the same-host handoff.
func ringSimFixture(t *testing.T) *conformance.Fixture {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	a, err := netsim.NewHost(net, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := netsim.NewHost(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(a, 0, b, 0, netsim.LinkConfig{
		Latency:    2 * netsim.Microsecond,
		BitsPerSec: 10_000_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	g := dataplane.NewRingGroup(netsim.Microsecond)
	ra := g.Join(1, a)
	rb := g.Join(2, b)
	return &conformance.Fixture{
		A: ra, B: rb,
		StA: 1, StB: 2,
		Settle: func(d backend.Duration) { sim.RunFor(d) },
	}
}

// ringRealFixture wraps two realnet UDP links in one group: ring
// pushes and drains run under the cluster's upcall mutex with genuine
// reader-goroutine concurrency on the fallback path, so -race watches
// the single-writer claim.
func ringRealFixture(t *testing.T) *conformance.Fixture {
	rn := realnet.NewCluster()
	a, err := rn.NewLink("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rn.NewLink("b", 2)
	if err != nil {
		rn.Close()
		t.Fatal(err)
	}
	rn.Start()
	g := dataplane.NewRingGroup(0)
	ra := g.Join(1, a)
	rb := g.Join(2, b)
	return &conformance.Fixture{
		A: ra, B: rb,
		StA: 1, StB: 2,
		Settle: func(d backend.Duration) { rn.Sleep(d) },
		Close:  func() { rn.Close() },
	}
}

func TestRingConformance_Netsim(t *testing.T) {
	conformance.Run(t, ringSimFixture)
	conformance.RunBatched(t, ringSimFixture)
}

func TestRingConformance_Realnet(t *testing.T) {
	conformance.Run(t, ringRealFixture)
	conformance.RunBatched(t, ringRealFixture)
}
