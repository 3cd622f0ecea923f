package netsim_test

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/backend/conformance"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// simFixture builds the standard two-host direct-link fixture and the
// network under it; batched turns on doorbell-coalesced delivery with a
// host receive cost wide enough that back-to-back sends land in one
// batch.
func simFixture(t *testing.T, batched bool) (*conformance.Fixture, *netsim.Network) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	if batched {
		net.SetBatchDelivery(true)
		net.SetHostRxCost(10 * netsim.Microsecond)
	}
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
	return &conformance.Fixture{
		A: a, B: b,
		StA: 1, StB: 2,
		Settle: func(d backend.Duration) { sim.RunFor(d) },
	}, net
}

// TestBackendConformance runs the shared backend contract suite
// against the simulator: two hosts on a direct link with the default
// sim-scale latency.
func TestBackendConformance(t *testing.T) {
	conformance.Run(t, func(t *testing.T) *conformance.Fixture {
		fx, _ := simFixture(t, false)
		return fx
	})
}

// TestBackendConformanceBatched reruns the full contract suite with
// doorbell-coalesced delivery enabled, then pins what only a doorbell
// can get wrong: bursts arrive complete and in send order within one
// doorbell and across the boundaries the settles force, and coalescing
// is live — fewer doorbells fired than frames delivered — or the fixture
// is testing the per-frame schedule under another name. And the borrow
// rule holds inside a batch: a frame's buffer reference is released when
// its own upcall returns, not when the doorbell's last one does.
func TestBackendConformanceBatched(t *testing.T) {
	conformance.Run(t, func(t *testing.T) *conformance.Fixture {
		fx, _ := simFixture(t, true)
		return fx
	})
	t.Run("BatchedFIFO", func(t *testing.T) {
		fx, net := simFixture(t, true)
		const bursts, perBurst = 8, 8
		var got []uint64
		fx.B.SetOnFrame(func(fr backend.Frame) {
			var h wire.Header
			if err := h.DecodeFrom(fr); err != nil {
				t.Fatal(err)
			}
			got = append(got, h.Seq)
		})
		for seq := uint64(0); seq < bursts*perBurst; seq++ {
			fx.A.SendBuf(conformance.Frame(t, fx.StA, fx.StB, seq), nil)
			if seq%perBurst == perBurst-1 {
				fx.Settle(backend.Millisecond)
			}
		}
		for i, seq := range got {
			if seq != uint64(i) {
				t.Fatalf("frame %d arrived out of order: seq %d", i, seq)
			}
		}
		fired, frames := net.BatchStats()
		if len(got) != bursts*perBurst || frames != bursts*perBurst {
			t.Fatalf("delivered %d of %d frames, %d through doorbells", len(got), bursts*perBurst, frames)
		}
		if fired < bursts || fired >= frames {
			t.Fatalf("%d doorbells for %d frames in %d bursts: want at least one per burst and fewer than one per frame",
				fired, frames, bursts)
		}
	})
	t.Run("BatchedRefcountBalance", func(t *testing.T) {
		fx, net := simFixture(t, true)
		const n = 8
		var buf conformance.CountBuf
		upcalls := 0
		fx.B.SetOnFrame(func(backend.Frame) {
			if got := buf.Releases.Load(); got != int64(upcalls) {
				t.Errorf("upcall %d: %d references released, want one per upcall before it", upcalls, got)
			}
			upcalls++
		})
		for seq := uint64(0); seq < n; seq++ {
			fx.A.SendBuf(conformance.Frame(t, fx.StA, fx.StB, seq), &buf)
		}
		fx.Settle(backend.Millisecond)
		if fired, _ := net.BatchStats(); fired != 1 || upcalls != n || buf.Releases.Load() != n {
			t.Fatalf("%d doorbells, %d upcalls, %d releases for one burst of %d", fired, upcalls, buf.Releases.Load(), n)
		}
	})
}
