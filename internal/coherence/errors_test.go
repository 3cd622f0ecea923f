package coherence

import (
	"testing"

	"repro/internal/memproto"
	"repro/internal/object"
	"repro/internal/wire"
)

func TestInvalidateSharersDirect(t *testing.T) {
	c := newCluster(t, 3)
	o, _ := c.makeObject(t, 0, 4096, "x")
	// Two sharers.
	c.nodes[1].coh.AcquireShared(o.ID())
	c.nodes[2].coh.AcquireShared(o.ID())
	c.sim.Run()
	if got := c.nodes[0].coh.SharerSet(o.ID()); len(got) != 2 {
		t.Fatalf("sharers = %v", got)
	}
	c.nodes[0].coh.invalidateSharers(o.ID(), 0)
	c.sim.Run()
	if c.nodes[1].st.Contains(o.ID()) || c.nodes[2].st.Contains(o.ID()) {
		t.Fatal("sharers survived explicit invalidation")
	}
	// Idempotent on unknown objects.
	c.nodes[0].coh.invalidateSharers(gen.New(), 0)
	c.sim.Run()
}

func TestSharersUnknownObject(t *testing.T) {
	c := newCluster(t, 1)
	if len(c.nodes[0].coh.SharerSet(gen.New())) != 0 {
		t.Fatal("phantom sharers")
	}
}

func TestWriteAtOutOfRange(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, 4096, "x")
	var gotErr error
	c.nodes[0].coh.WriteAt(o.ID(), 1<<20, []byte("zz")).Then(func(_ struct{}, err error) { gotErr = err })
	c.sim.Run()
	if gotErr == nil {
		t.Fatal("out-of-range remote write accepted")
	}
	// Local home out-of-range write too.
	var gotErr2 error
	c.nodes[1].coh.WriteAt(o.ID(), 1<<20, []byte("zz")).Then(func(_ struct{}, err error) { gotErr2 = err })
	c.sim.Run()
	if gotErr2 == nil {
		t.Fatal("out-of-range local write accepted")
	}
}

func TestWriteAtNonexistent(t *testing.T) {
	c := newCluster(t, 2)
	var gotErr error
	c.nodes[0].coh.WriteAt(gen.New(), 0, []byte("zz")).Then(func(_ struct{}, err error) { gotErr = err })
	c.sim.Run()
	if gotErr == nil {
		t.Fatal("write to nonexistent object accepted")
	}
}

func TestReadAtNonexistent(t *testing.T) {
	c := newCluster(t, 2)
	var gotErr error
	c.nodes[0].coh.ReadAt(gen.New(), 0, 8).Then(func(_ []byte, err error) { gotErr = err })
	c.sim.Run()
	if gotErr == nil {
		t.Fatal("read of nonexistent object accepted")
	}
}

func TestReleaseNotHeld(t *testing.T) {
	c := newCluster(t, 2)
	var gotErr error
	c.nodes[0].coh.Release(gen.New()).Then(func(_ struct{}, err error) { gotErr = err })
	c.sim.Run()
	if gotErr == nil {
		t.Fatal("release of unheld object accepted")
	}
}

func TestHandleFrameIgnoresOtherTypes(t *testing.T) {
	c := newCluster(t, 1)
	n := c.nodes[0].coh
	if n.HandleFrame(&wire.Header{Type: wire.MsgRPC}, nil) {
		t.Fatal("consumed a non-mem frame")
	}
	// Malformed memproto payload is consumed (and dropped) silently.
	if !n.HandleFrame(&wire.Header{Type: wire.MsgMem}, []byte{1, 2}) {
		t.Fatal("malformed mem frame not consumed")
	}
}

func TestServeReleaseToNonHome(t *testing.T) {
	// A release arriving at a node that is not the object's home gets
	// a not-found status back.
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, 4096, "elsewhere")
	// Node 0 acquires a copy, then node 1's home moves away
	// (simulated by deleting at node 1 post-acquire).
	var cached *object.Object
	c.nodes[0].coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) { cached = obj })
	c.sim.Run()
	if cached == nil {
		t.Fatal("setup acquire failed")
	}
	c.nodes[1].st.Delete(o.ID())
	c.nodes[1].e2e.Withdraw(o.ID())
	// Note: node 0's resolver cache still points at node 1, so the
	// release lands there and must be NACKed.
	var rerr error
	c.nodes[0].coh.Release(o.ID()).Then(func(_ struct{}, err error) { rerr = err })
	c.sim.Run()
	if rerr == nil {
		t.Fatal("release to non-home accepted")
	}
}

func TestGrantFragmentWithoutFetchIgnored(t *testing.T) {
	c := newCluster(t, 1)
	// An unsolicited push for an object we never requested must be
	// ignored without state corruption.
	m := memproto.Msg{Op: memproto.OpObjectPush, TotalLen: 10, Data: make([]byte, 10)}
	c.nodes[0].coh.HandleFrame(&wire.Header{Type: wire.MsgMem, Object: gen.New()},
		m.Marshal(nil))
	c.sim.Run()
	if c.nodes[0].st.Len() != 0 {
		t.Fatal("phantom object appeared")
	}
}
