package dataplane_test

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/backend/conformance"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/realnet"
	"repro/internal/wire"
)

// Ring links are a backend.Link implementation in their own right, so
// they must pass the same contract suite the fabric backends do — over
// both inner backends, and then what only a doorbell can get wrong (a
// ring drain is inherently coalesced: N pushes, one wakeup). Same-group traffic
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

// ringRealFixture wraps two realnet UDP links in one group. A group is
// one process, so the links share one upcall lock: ring pushes and
// drains run under it with genuine reader-goroutine concurrency on the
// fallback path, so -race watches the single-writer claim.
func ringRealFixture(t *testing.T) *conformance.Fixture {
	rn := realnet.NewCluster()
	a, err := rn.NewLink("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rn.NewLinkBeside(a, "b", 2)
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

// testRingBursts pushes bursts from inside one Exec each and settles
// between them. A push rings a doorbell, it does not call up: no frame
// may reach the consumer before its producer's Exec returns. Every frame
// must then arrive, in send order, across the drains the settles force.
// On a virtual clock coalescing is visible as well: a burst is delivered
// at one instant, later than the burst before it.
func testRingBursts(t *testing.T, fx *conformance.Fixture, virtual bool) {
	if fx.Close != nil {
		defer fx.Close()
	}
	const bursts, perBurst = 8, 8
	clock := fx.B.Clock()
	var got []uint64
	var at []backend.Time
	fx.B.Exec(func() {
		fx.B.SetOnFrame(func(fr backend.Frame) {
			var h wire.Header
			if err := h.DecodeFrom(fr); err != nil {
				t.Error(err)
			}
			got, at = append(got, h.Seq), append(at, clock.Now())
		})
	})
	arrived := func() (n int) {
		fx.B.Exec(func() { n = len(got) })
		return n
	}
	for sent := 0; sent < bursts*perBurst; {
		var burst [perBurst]backend.Frame
		for i := range burst {
			burst[i] = conformance.Frame(t, fx.StA, fx.StB, uint64(sent+i))
		}
		fx.A.Exec(func() {
			for _, fr := range burst {
				fx.A.SendBuf(fr, nil)
			}
			// Ring peers are one process: A's Exec excludes B's upcalls too.
			if len(got) != sent {
				t.Errorf("%d frames delivered from inside the push of frames %d..%d", len(got)-sent, sent, sent+perBurst-1)
			}
		})
		sent += perBurst
		for i := 0; i < 500 && arrived() < sent; i++ {
			fx.Settle(backend.Millisecond)
		}
	}
	if n := arrived(); n != bursts*perBurst {
		t.Fatalf("delivered %d of %d frames", n, bursts*perBurst)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("frame %d arrived out of order: seq %d", i, seq)
		}
		if first := at[i-i%perBurst]; virtual && (at[i] != first || i >= perBurst && first <= at[i-perBurst]) {
			t.Fatalf("frame %d delivered at %v: want its burst's one instant %v, after the burst before", i, at[i], first)
		}
	}
}

// testRingBorrow pins the borrow rule inside a drain: a frame's ring
// reference is released when its own upcall returns, so by the k-th
// upcall of a burst exactly k references are back — not none until the
// drain ends, as when a drain handed the consumer all of it at once.
func testRingBorrow(t *testing.T, fx *conformance.Fixture) {
	if fx.Close != nil {
		defer fx.Close()
	}
	const n = 8
	var buf conformance.CountBuf
	upcalls := 0
	fx.B.Exec(func() {
		fx.B.SetOnFrame(func(backend.Frame) {
			if got := buf.Releases.Load(); got != int64(upcalls) {
				t.Errorf("upcall %d: %d references released, want one per upcall before it", upcalls, got)
			}
			upcalls++
		})
	})
	var burst [n]backend.Frame
	for i := range burst {
		burst[i] = conformance.Frame(t, fx.StA, fx.StB, uint64(i))
	}
	fx.A.Exec(func() {
		for _, fr := range burst {
			fx.A.SendBuf(fr, &buf)
		}
	})
	for i := 0; i < 500 && buf.Releases.Load() < n; i++ {
		fx.Settle(backend.Millisecond)
	}
	var seen int
	fx.B.Exec(func() { seen = upcalls })
	if seen != n || buf.Releases.Load() != n {
		t.Fatalf("%d upcalls, %d releases for one burst of %d", seen, buf.Releases.Load(), n)
	}
}

func TestRingConformance_Netsim(t *testing.T) {
	conformance.Run(t, ringSimFixture)
	t.Run("BatchedFIFO", func(t *testing.T) { testRingBursts(t, ringSimFixture(t), true) })
	t.Run("BatchedRefcountBalance", func(t *testing.T) { testRingBorrow(t, ringSimFixture(t)) })
}

func TestRingConformance_Realnet(t *testing.T) {
	conformance.Run(t, ringRealFixture)
	t.Run("BatchedFIFO", func(t *testing.T) { testRingBursts(t, ringRealFixture(t), false) })
	t.Run("BatchedRefcountBalance", func(t *testing.T) { testRingBorrow(t, ringRealFixture(t)) })
}
