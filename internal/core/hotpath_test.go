package core

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// TestBatchDeliveryCoherence runs remote reads with doorbell batching
// and a host receive cost: results must be identical in content,
// batches must actually coalesce under back-to-back traffic, and no
// frame buffer may leak.
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
