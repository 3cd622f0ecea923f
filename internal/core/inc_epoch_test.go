package core

import (
	"slices"
	"testing"

	"repro/internal/inc"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/wire"
)

// TestMulticastInvalidateOutrunsLostGrant is coherence's
// TestInvalidateOutrunsLostGrant under in-network multicast: one
// MsgIncInv frame invalidates every sharer, and its round id is the
// epoch each member compares with the grant it is waiting for. A sharer
// whose shared grant's first transmission is lost acks the multicast
// before the retransmission arrives; the late grant must not install a
// copy the home dropped from its directory on that ack.
func TestMulticastInvalidateOutrunsLostGrant(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeController, NumNodes: 4, Inc: inc.Config{Mcast: true}})
	home, sharer, racer, writer := c.Node(0), c.Node(1), c.Node(2), c.Node(3)
	o, err := home.CreateObject(2048)
	if err != nil {
		t.Fatal(err)
	}
	obj, heapOff := o.ID(), uint64(object.HeaderSize+object.FOTEntrySize*object.DefaultFOTCap)
	c.Run()
	// A first round installs the sharer group {1, 2}, so the measured
	// round's multicast leaves without waiting on the controller.
	round := func() {
		sharer.Coherence.AcquireShared(obj)
		racer.Coherence.AcquireShared(obj)
		c.Run()
		home.Coherence.WriteAt(obj, heapOff, []byte{1})
		c.Run()
		c.RunFor(5 * netsim.Millisecond) // drain ack timers
	}
	round()
	sharer.Coherence.AcquireShared(obj)
	c.Run()
	dropped := 0
	c.Net.SetFrameControlHook(func(_, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		if h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem || h.Src != home.Station || h.Dst != racer.Station ||
			m.Unmarshal(fr[h.WireLen():]) != nil || m.Op != memproto.OpGrant || dropped > 0 {
			return netsim.FrameControl{}
		}
		dropped++
		return netsim.FrameControl{Drop: true}
	})
	sent := home.Coherence.IncCounters().McastInvSent
	got := racer.Coherence.AcquireShared(obj)
	c.Sim.Schedule(20*netsim.Microsecond, func() { writer.Coherence.AcquireExclusive(obj) })
	c.Run()
	c.RunFor(5 * netsim.Millisecond)
	if dropped != 1 || home.Coherence.IncCounters().McastInvSent != sent+1 {
		t.Fatalf("dropped %d grants, %d multicast invalidates: the race was not set up",
			dropped, home.Coherence.IncCounters().McastInvSent-sent)
	}
	if _, err := got.Result(); !got.Done() || err != nil {
		t.Fatalf("racer's acquire: done=%v, %v", got.Done(), err)
	}
	want, _ := home.Store.Peek(obj)
	if e, ok := racer.Store.Peek(obj); ok && (e.Version != want.Version || !slices.Contains(home.Coherence.SharerSet(obj), racer.Station)) {
		t.Fatalf("station %d holds version %d, home at %d with sharers %v: a copy the home no longer tracks",
			racer.Station, e.Version, want.Version, home.Coherence.SharerSet(obj))
	}
}
