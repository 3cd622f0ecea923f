package core

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// TestRingGroupCoherence runs remote coherence ops between co-resident
// nodes: their traffic must actually travel the same-host rings (not
// the fabric), produce correct data, and leave the frame-buffer ledger
// balanced at quiescence.
func TestRingGroupCoherence(t *testing.T) {
	base := dataplane.LiveBufs()
	c := newTestCluster(t, Config{
		Scheme:     SchemeE2E,
		RingGroups: [][]int{{0, 1, 2}},
	})
	owner, reader := c.Node(1), c.Node(0)
	o, err := owner.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o.AllocString("ring-coherent")
	c.Run()

	var got []byte
	reader.Coherence.ReadAt(o.ID(), uint64(off)+8, 13).Then(func(b []byte, err error) {
		if err != nil {
			t.Fatalf("ring read: %v", err)
		}
		got = append([]byte(nil), b...)
	})
	var writeErr error
	reader.Coherence.WriteAt(o.ID(), o.HeapBase(), []byte("ring-write-back")).Then(func(_ struct{}, err error) { writeErr = err })
	c.Run()

	if string(got) != "ring-coherent" {
		t.Fatalf("read %q through the ring", got)
	}
	if writeErr != nil {
		t.Fatalf("ring write: %v", writeErr)
	}
	sent, delivered := uint64(0), uint64(0)
	for _, n := range c.Nodes {
		if n.Ring == nil {
			t.Fatal("node in a ring group has no RingLink")
		}
		st := n.Ring.Stats()
		sent += st.RingSent
		delivered += st.RingDelivered
		if st.RingDroppedFull != 0 {
			t.Fatalf("station %d dropped %d frames to a full ring", n.Station, st.RingDroppedFull)
		}
	}
	if sent == 0 || delivered == 0 {
		t.Fatalf("co-resident traffic bypassed the rings: sent=%d delivered=%d", sent, delivered)
	}
	if live := dataplane.LiveBufs(); live != base {
		t.Fatalf("LiveBufs = %d at quiescence, baseline %d — the ring path leaked", live, base)
	}
}

// TestBatchDeliveryCoherence runs the same remote ops with doorbell
// batching and a host receive cost: results must be identical in
// content, batches must actually coalesce under back-to-back traffic,
// and no frame buffer may leak.
func TestBatchDeliveryCoherence(t *testing.T) {
	base := dataplane.LiveBufs()
	c := newTestCluster(t, Config{
		Scheme: SchemeE2E,
		Fabric: netsim.FabricConfig{BatchDelivery: true, HostRxCost: 5 * netsim.Microsecond},
	})
	owner, reader := c.Node(1), c.Node(0)
	o, err := owner.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o.AllocString("batched-coherent")
	c.Run()

	const reads = 8
	done := 0
	for i := 0; i < reads; i++ {
		reader.Coherence.ReadAt(o.ID(), uint64(off)+8, 16).Then(func(b []byte, err error) {
			if err != nil {
				t.Fatalf("batched read: %v", err)
			}
			if string(b) != "batched-coherent" {
				t.Fatalf("batched read returned %q", b)
			}
			done++
		})
	}
	c.Run()
	if done != reads {
		t.Fatalf("completed %d of %d batched reads", done, reads)
	}
	if fired, frames := c.Net.BatchStats(); frames <= fired {
		t.Fatalf("no coalescing: %d doorbells carried %d frames", fired, frames)
	}
	if live := dataplane.LiveBufs(); live != base {
		t.Fatalf("LiveBufs = %d at quiescence, baseline %d — the batch path leaked", live, base)
	}
}

// TestRingGroupsRejectBadConfig pins buildRingGroups validation: an
// out-of-range index and a node in two groups are construction errors,
// not silent misconfigurations.
func TestRingGroupsRejectBadConfig(t *testing.T) {
	if _, err := NewCluster(Config{Seed: 7, Scheme: SchemeE2E, RingGroups: [][]int{{0, 9}}}); err == nil {
		t.Fatal("out-of-range ring index accepted")
	}
	if _, err := NewCluster(Config{Seed: 7, Scheme: SchemeE2E, RingGroups: [][]int{{0, 1}, {1, 2}}}); err == nil {
		t.Fatal("node in two ring groups accepted")
	}
}
