package netsim_test

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestBatchedDeliveryBufBalance is the Buf-leak regression for the
// doorbell path: pooled frames stream through batched delivery while
// the frame-control hook drops, duplicates, and delays a slice of them
// — every early-return in the batch machinery (drop before delivery,
// dup's extra reference, a delayed frame joining a later doorbell)
// must keep the refcount ledger balanced at quiescence.
func TestBatchedDeliveryBufBalance(t *testing.T) {
	base := dataplane.LiveBufs()
	sim := netsim.NewSim(3)
	net := netsim.NewNetwork(sim)
	net.SetBatchDelivery(true)
	net.SetHostRxCost(5 * netsim.Microsecond)
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
		BitsPerSec: 1_000_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	b.SetOnFrame(func(netsim.Frame) { delivered++ })

	sent := 0
	net.SetFrameControlHook(func(_, _ string, fr netsim.Frame) netsim.FrameControl {
		sent++
		switch {
		case sent%5 == 0:
			return netsim.FrameControl{Drop: true}
		case sent%7 == 0:
			return netsim.FrameControl{Dup: true}
		case sent%3 == 0:
			return netsim.FrameControl{Delay: 50 * netsim.Microsecond}
		}
		return netsim.FrameControl{}
	})

	const n = 100
	for i := uint64(0); i < n; i++ {
		h := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: i}
		buf, err := dataplane.EncodeFrame(&h, []byte("batched-leak-probe"))
		if err != nil {
			t.Fatal(err)
		}
		a.SendBuf(buf.Bytes(), buf)
	}
	sim.Run()

	if delivered == 0 {
		t.Fatal("no frames delivered through the doorbell")
	}
	if fired, frames := net.BatchStats(); frames <= fired {
		t.Fatalf("no coalescing: %d doorbells carried %d frames", fired, frames)
	}
	if live := dataplane.LiveBufs(); live != base {
		t.Fatalf("LiveBufs = %d at quiescence, baseline %d — the batch path leaked or double-released", live, base)
	}
}
