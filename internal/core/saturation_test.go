package core

import (
	"slices"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/object"
	"repro/internal/oid"
)

// TestSaturatedClosedLoopDoesNotStorm drives a 100 Mb/s E2E fabric
// with 16 outstanding mixed ops from one node — twice the clients its
// links serve inside a millisecond. Round trips there run to several
// times the transport's 200 µs timeout floor, all of it queueing: the
// retransmit timer has to follow the measured path, or every frame is
// retransmitted into the queue that delayed it.
func TestSaturatedClosedLoopDoesNotStorm(t *testing.T) {
	base := dataplane.LiveBufs()
	c := newTestCluster(t, Config{Scheme: SchemeE2E, NumNodes: 3, LinkBitsPerSec: 100_000_000})
	const clients, objects, ops = 16, 64, 6000
	ids := make([]oid.ID, objects)
	for i := range ids {
		o, err := c.Node(1 + i%2).CreateObject(4096)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = o.ID()
	}
	c.Run()

	coh := c.Node(0).Coherence
	const off = uint64(object.HeaderSize + object.FOTEntrySize*object.DefaultFOTCap)
	record := make([]byte, 64)
	issued, completed, failed := 0, 0, 0
	var next func(slot int)
	finish := func(slot int, what string, err error) {
		completed++
		if err != nil {
			failed++
			t.Logf("%s: %v", what, err)
		}
		next(slot)
	}
	// Slot s owns the objects ≡ s mod clients, so two outstanding
	// exclusive acquires never meet on one object. Of every eight ops
	// six read, one writes and one writes, acquires and releases. That
	// write leaves the node no copy of the object it acquires, so the
	// grant carries the object: an acquire of a copy the node still
	// holds at the home's version moves no bytes.
	next = func(slot int) {
		if issued == ops {
			return
		}
		i := issued
		issued++
		id := ids[slot+clients*(i%(objects/clients))]
		switch i % 8 {
		default:
			coh.ReadAt(id, off, len(record)).Then(func(_ []byte, err error) { finish(slot, "read", err) })
		case 6:
			coh.WriteAt(id, off, record).Then(func(_ struct{}, err error) { finish(slot, "write", err) })
		case 7:
			coh.WriteAt(id, off, record).Then(func(_ struct{}, err error) {
				if err != nil {
					finish(slot, "write", err)
					return
				}
				coh.AcquireExclusive(id).Then(func(_ *object.Object, err error) {
					if err != nil {
						finish(slot, "acquire", err)
						return
					}
					coh.Release(id).Then(func(_ struct{}, err error) { finish(slot, "release", err) })
				})
			})
		}
	}
	for s := 0; s < clients; s++ {
		next(s)
	}
	before := c.Telemetry()
	c.Run()
	tel := c.Telemetry()

	if completed != ops || failed != 0 {
		t.Fatalf("%d of %d ops completed, %d failed", completed, ops, failed)
	}
	rtx := tel.Value("transport.retransmits_total") - before.Value("transport.retransmits_total")
	if perOp := float64(rtx) / ops; perOp > 0.25 {
		t.Errorf("%.2f retransmissions per op (%d in all), want <= 0.25", perOp, rtx)
	}
	// The run's own output says why: the path was measured well above
	// the floor, the timeout sits above the measurement, and responses
	// stood in for acks.
	srtt, rto := tel.Value("transport.srtt_us"), tel.Value("transport.rto_us")
	if srtt <= 200 || rto < srtt {
		t.Errorf("transport.srtt_us = %d, transport.rto_us = %d: want a measured path above the 200us floor and a timeout above it", srtt, rto)
	}
	if tel.Value("transport.acks_implicit_total") == 0 {
		t.Error("transport.acks_implicit_total = 0: no response completed its request")
	}
	// The responders kept those responses, and each is released by the
	// drain's end: the gauge rests at zero.
	for _, name := range []string{"transport.replies_kept", "transport.replies_resent"} {
		if !slices.Contains(tel.Names(), name) {
			t.Errorf("%s is not in the cluster's telemetry", name)
		}
	}
	if kept := tel.Value("transport.replies_kept"); kept != 0 {
		t.Errorf("transport.replies_kept = %d at quiescence, want 0", kept)
	}
	if rtx != tel.Value("transport.retransmits")-before.Value("transport.retransmits") {
		t.Error("transport.retransmits_total and transport.retransmits disagree")
	}
	if live := dataplane.LiveBufs(); live != base {
		t.Errorf("LiveBufs = %d at quiescence, baseline %d", live, base)
	}
}
