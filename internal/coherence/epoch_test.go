package coherence

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/future"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/wire"
)

// TestInvalidateOutrunsLostGrant scripts the race the generated checker
// cells found. Station 2 acquires a one-fragment object shared and
// station 1 exclusive; the home serves station 2 first, but that grant's
// first transmission is lost, so the invalidate the exclusive acquire
// sends station 2 arrives before the grant's retransmission. Station 2
// acks it and the home drops it from the directory. The late grant must
// not install a copy the home no longer tracks: station 2 ends with no
// copy or with one its home's directory covers, at the home's version.
func TestInvalidateOutrunsLostGrant(t *testing.T) {
	c := newCluster(t, 3)
	o, _ := c.makeObject(t, 2, 2048, "raced")
	sharer, excl, home := c.nodes[1], c.nodes[0], c.nodes[2]
	dropped := 0
	c.net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		if from != "h2" || h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem || h.Dst != sharer.ep.Station() ||
			m.Unmarshal(fr[h.WireLen():]) != nil || m.Op != memproto.OpGrant || dropped > 0 {
			return netsim.FrameControl{}
		}
		dropped++
		return netsim.FrameControl{Drop: true}
	})
	shared := sharer.coh.AcquireShared(o.ID())
	var exclusive *future.Future[*object.Object]
	c.sim.Schedule(3*netsim.Microsecond, func() { exclusive = excl.coh.AcquireExclusive(o.ID()) })
	c.sim.Run()
	for _, f := range []*future.Future[*object.Object]{shared, exclusive} {
		if _, err := f.Result(); !f.Done() || err != nil || dropped != 1 {
			t.Fatalf("dropped %d grants; an acquire: done=%v, %v", dropped, f.Done(), err)
		}
	}
	if home.coh.Counters().InvalidatesSent == 0 || sharer.coh.Counters().InvalidatesRecv == 0 {
		t.Fatal("the exclusive acquire invalidated no one: the race was not set up")
	}
	e, ok := sharer.st.Peek(o.ID())
	if !ok {
		return
	}
	want, _ := home.st.Peek(o.ID())
	if !slices.Contains(home.coh.SharerSet(o.ID()), sharer.ep.Station()) || e.Version != want.Version {
		t.Fatalf("station %d holds version %d, home at %d with sharers %v: a copy the home no longer tracks",
			sharer.ep.Station(), e.Version, want.Version, home.coh.SharerSet(o.ID()))
	}
}

// TestOwnWriteOutrunsLostGrant: a home invalidates every sharer of a
// write but the writer, whose answer drops the writer's own copy. When
// the writer's shared acquire was served just before the write and its
// grant's first transmission was lost, the answer arrives first; the
// grant's retransmission must not install the version the write
// replaced, or the writer reads older bytes than it wrote.
func TestOwnWriteOutrunsLostGrant(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, 2048, "written")
	writer, home := c.nodes[0], c.nodes[1]
	dropped := 0
	c.net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		if from != "h1" || h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem ||
			m.Unmarshal(fr[h.WireLen():]) != nil || m.Op != memproto.OpGrant || dropped > 0 {
			return netsim.FrameControl{}
		}
		dropped++
		return netsim.FrameControl{Drop: true}
	})
	acq := writer.coh.AcquireShared(o.ID())
	var write *future.Future[struct{}]
	c.sim.Schedule(3*netsim.Microsecond, func() { write = writer.coh.WriteAt(o.ID(), off, []byte("WRITTEN")) })
	c.sim.Run()
	if _, err := acq.Result(); !acq.Done() || err != nil || dropped != 1 {
		t.Fatalf("dropped %d grants; acquire: done=%v, %v", dropped, acq.Done(), err)
	}
	if _, err := write.Result(); !write.Done() || err != nil {
		t.Fatalf("write: done=%v, %v", write.Done(), err)
	}
	want, _ := home.st.Peek(o.ID())
	if e, ok := writer.st.Peek(o.ID()); ok && e.Version != want.Version {
		t.Fatalf("the writer holds version %d after its write made version %d", e.Version, want.Version)
	}
}

// TestReadOutrunsLostInvalidate: a station holds a copy whose
// invalidate was lost, and one of its reads returns the newer version
// the home published since. Its next local acquire must not return the
// older copy: a station's reads never go back in time, so the read
// drops the copy it has just seen is stale.
func TestReadOutrunsLostInvalidate(t *testing.T) {
	c := newCluster(t, 3)
	o, off := c.makeObject(t, 2, 2048, "read")
	reader, writer := c.nodes[0], c.nodes[1]
	// Warm both resolvers, so the three operations below reach the home
	// in the order they are issued.
	reader.coh.ReadAt(o.ID(), off, 4)
	writer.coh.ReadAt(o.ID(), off, 4)
	c.sim.Run()
	dropped := 0
	c.net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		if from != "h2" || h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem ||
			m.Unmarshal(fr[h.WireLen():]) != nil || m.Op != memproto.OpInvalidate || dropped > 0 {
			return netsim.FrameControl{}
		}
		dropped++
		return netsim.FrameControl{Drop: true}
	})
	reader.coh.AcquireShared(o.ID())
	c.sim.Schedule(1*netsim.Microsecond, func() { writer.coh.WriteAt(o.ID(), off, []byte("READ!")) })
	var read []byte
	c.sim.Schedule(2*netsim.Microsecond, func() {
		reader.coh.ReadAt(o.ID(), off, 5).Then(func(b []byte, err error) { read = b })
	})
	c.sim.RunFor(60 * netsim.Microsecond) // past the read's answer, before the invalidate's retransmission
	if dropped != 1 || string(read) != "READ!" {
		t.Fatalf("dropped %d invalidates; the read returned %q", dropped, read)
	}
	got := reader.coh.AcquireShared(o.ID())
	c.sim.Run()
	b, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}
	if s := b.Bytes()[off : off+5]; !bytes.Equal(s, []byte("READ!")) {
		t.Fatalf("the acquire after a read of the newer version returned the older copy (%q)", s)
	}
}

// TestLateReleaseAckReplacedCopy: a release's answer relabels the
// released copy with the version the home published for it. When the
// answer's first transmission is lost and the station has meanwhile
// acquired the object exclusively again and changed its new copy, the
// late answer must not pass that copy off as the home's version, nor
// demote its grant in place: the copy is stale news to the answer, and
// goes.
func TestLateReleaseAckReplacedCopy(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, 2048, "released")
	node, home := c.nodes[0], c.nodes[1]
	node.coh.AcquireShared(o.ID())
	c.sim.Run()
	dropped := 0
	c.net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		if from != "h1" || h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem ||
			m.Unmarshal(fr[h.WireLen():]) != nil || m.Op != memproto.OpReleaseAck || dropped > 0 {
			return netsim.FrameControl{}
		}
		dropped++
		return netsim.FrameControl{Drop: true}
	})
	rel := node.coh.Release(o.ID())
	c.sim.Schedule(1*netsim.Microsecond, func() {
		node.coh.AcquireExclusive(o.ID()).Then(func(cp *object.Object, err error) {
			if err == nil {
				scribble(cp, 0xEE)
			}
		})
	})
	c.sim.Run()
	if _, err := rel.Result(); err != nil || dropped != 1 {
		t.Fatalf("dropped %d release answers; release: %v", dropped, err)
	}
	want, _ := home.st.Peek(o.ID())
	if e, ok := node.st.Peek(o.ID()); ok && e.Version == want.Version && !bytes.Equal(e.Obj.Bytes(), want.Obj.Bytes()) {
		t.Fatalf("the station's changed copy is labeled with the home's version %d", e.Version)
	}
}

// TestLateReleaseAckKeepsNewerLabel: a station releases one copy twice,
// and the first release's answer is lost once, so its retransmission
// arrives after the second release's answer. Both answers name the
// copy the station still holds; the late one carries the older version
// and must not relabel the copy down to it.
func TestLateReleaseAckKeepsNewerLabel(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, 2048, "released")
	node, home := c.nodes[0], c.nodes[1]
	acq := node.coh.AcquireExclusive(o.ID())
	c.sim.Run()
	cp, err := acq.Result()
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	c.net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		if from != "h1" || h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem ||
			m.Unmarshal(fr[h.WireLen():]) != nil || m.Op != memproto.OpReleaseAck || dropped > 0 {
			return netsim.FrameControl{}
		}
		dropped++
		return netsim.FrameControl{Drop: true}
	})
	scribble(cp, 0xAA)
	first := node.coh.Release(o.ID())
	var second *future.Future[struct{}]
	c.sim.Schedule(1*netsim.Microsecond, func() {
		scribble(cp, 0xBB)
		second = node.coh.Release(o.ID())
	})
	c.sim.Run()
	for _, f := range []*future.Future[struct{}]{first, second} {
		if _, err := f.Result(); !f.Done() || err != nil || dropped != 1 {
			t.Fatalf("dropped %d release answers; a release: done=%v, %v", dropped, f.Done(), err)
		}
	}
	want, _ := home.st.Peek(o.ID())
	if e, ok := node.st.Peek(o.ID()); ok && e.Version != want.Version {
		t.Fatalf("the station's copy reads version %d, the home published %d: a late answer relabeled it down",
			e.Version, want.Version)
	}
}

// TestPromotedHomeRestartsEpochs: a home rebuilt on another node (a
// promoted replica) starts its epoch clock over, so its first grant can
// be older by epoch than an invalidate the old home sent and the fetch
// acked. The fetch drops that grant and asks once more; the fresh
// attempt forgets the old home's epochs, so the second grant completes
// it, whatever epoch the old home had reached.
func TestPromotedHomeRestartsEpochs(t *testing.T) {
	c := newCluster(t, 4)
	o, off := c.makeObject(t, 3, 2048, "promoted")
	fetcher, writer, promoted := c.nodes[0], c.nodes[1], c.nodes[2]
	fetcher.coh.ReadAt(o.ID(), off, 4)
	writer.coh.ReadAt(o.ID(), off, 4)
	c.sim.Run()
	// The old home registered the fetcher many times over (for a copy it
	// has since dropped), so the invalidate it sends carries a high epoch.
	for range 50 {
		c.nodes[3].coh.AddSharer(o.ID(), fetcher.ep.Station())
	}
	dropped := 0
	c.net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		if from != "h0" || h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem ||
			m.Unmarshal(fr[h.WireLen():]) != nil || m.Op != memproto.OpAcquire || dropped > 0 {
			return netsim.FrameControl{}
		}
		dropped++
		return netsim.FrameControl{Drop: true}
	})
	// The fetcher's request is lost; while its retransmission waits, a
	// write invalidates the fetcher at the old home, and the home moves.
	acq := fetcher.coh.AcquireShared(o.ID())
	c.sim.Schedule(1*netsim.Microsecond, func() { writer.coh.WriteAt(o.ID(), off, []byte("NEWER")) })
	c.sim.Schedule(100*netsim.Microsecond, func() { c.move(t, o.ID(), 3, 2) })
	c.sim.Run()
	if dropped != 1 || fetcher.coh.Counters().InvalidatesRecv != 1 {
		t.Fatalf("dropped %d requests, %d invalidates received: the race was not set up",
			dropped, fetcher.coh.Counters().InvalidatesRecv)
	}
	if _, err := acq.Result(); !acq.Done() || err != nil {
		t.Fatalf("acquire: done=%v, %v", acq.Done(), err)
	}
	if got := promoted.coh.Counters().GrantsServed; got != 2 {
		t.Fatalf("the promoted home served %d grants, want 2: one dropped as no newer than the old home's invalidate, one installed", got)
	}
	want, _ := promoted.st.Peek(o.ID())
	if e, ok := fetcher.st.Peek(o.ID()); !ok || e.Version != want.Version || !slices.Contains(promoted.coh.SharerSet(o.ID()), fetcher.ep.Station()) {
		t.Fatalf("the fetcher holds no copy, or one the promoted home (version %d, sharers %v) does not track",
			want.Version, promoted.coh.SharerSet(o.ID()))
	}
}
