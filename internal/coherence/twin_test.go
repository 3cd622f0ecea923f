package coherence

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/store"
	"repro/internal/wire"
)

// releaseFrames counts the OpRelease frames h0 sends from now on, and
// how many of them carry no data.
func (c *cluster) releaseFrames() (all, dataless *int) {
	all, dataless = new(int), new(int)
	c.net.SetFrameControlHook(func(src, _ string, fr netsim.Frame) netsim.FrameControl {
		if m, ok := fragmentOf(src, "h0", fr); ok && m.Op == memproto.OpRelease {
			*all++
			if m.TotalLen == 0 && len(m.Data) == 0 {
				*dataless++
			}
		}
		return netsim.FrameControl{}
	})
	return all, dataless
}

// publishes counts the RecPublish records node i makes from now on.
func (c *cluster) publishes(i int) *int {
	n := new(int)
	c.nodes[i].coh.AddObserver(func(r Record) {
		if r.Kind == RecPublish {
			*n++
		}
	})
	return n
}

// TestUnchangedCopyReleasesAsOneFrame: an exclusive copy of 64 KiB
// released as it was granted goes home as one data-less frame. The home
// commits its own bytes as the next version and reassembles nothing,
// so its scratch list keeps the regions it had.
func TestUnchangedCopyReleasesAsOneFrame(t *testing.T) {
	c, o := warmHome(t, 64<<10)
	home := c.nodes[1]
	scratch := slices.Clone(home.coh.scratch)
	e, _ := home.st.Peek(o.ID())
	want, version := e.Obj.CloneBytes(), e.Version
	publishes := c.publishes(1)

	cp := c.acquireExclusive(t, o)
	if len(c.nodes[0].coh.twins) != 1 {
		t.Fatal("an exclusive grant kept no twin")
	}
	all, dataless := c.releaseFrames()
	c.release(t, o)
	if *all != 1 || *dataless != 1 {
		t.Fatalf("the release sent %d frames, %d of them data-less; want one data-less frame", *all, *dataless)
	}
	if e, _ := home.st.Peek(o.ID()); !bytes.Equal(e.Obj.Bytes(), want) || e.Version != version+1 || *publishes != 1 {
		t.Fatalf("home at version %d after %d publishes (want %d after 1), bytes kept: %v",
			e.Version, *publishes, version+1, bytes.Equal(e.Obj.Bytes(), want))
	}
	if len(home.coh.scratch) != len(scratch) || &home.coh.scratch[0][:1][0] != &scratch[0][:1][0] {
		t.Fatal("a data-less release changed the home's scratch list")
	}
	if e, _ := c.nodes[0].st.Peek(o.ID()); e.Obj != cp || e.Version != version+1 || c.nodes[0].coh.GrantedPerm(o.ID()) != memproto.PermShared {
		t.Fatal("the released copy was not relabeled the home's new version, shared")
	}
	if len(c.nodes[0].coh.twins) != 0 {
		t.Fatal("a twin outlived the release of its grant")
	}
}

// TestConflictedCleanReleaseSendsItsBytes: the home writes its object
// while an unchanged copy's data-less release is on the wire, so it
// answers StatusConflict, and the station sends the release again with
// the bytes it released. The home ends exactly where a release that
// carried its bytes the first time leaves it: at the releaser's bytes.
func TestConflictedCleanReleaseSendsItsBytes(t *testing.T) {
	run := func(withTwin bool) (raw []byte, version uint64, frames, dataless int) {
		c := newCluster(t, 2)
		o, off := c.makeObject(t, 1, bulkSize, "home v1")
		c.acquireExclusive(t, o)
		if !withTwin {
			c.nodes[0].coh.ungrant(o.ID())
		}
		all, dl := c.releaseFrames()
		var err error
		c.nodes[0].coh.Release(o.ID()).Then(func(_ struct{}, e error) { err = e })
		c.nodes[1].coh.WriteAt(o.ID(), off, []byte("the home moved on"))
		c.sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		e, _ := c.nodes[1].st.Peek(o.ID())
		return e.Obj.CloneBytes(), e.Version, *all, *dl
	}
	raw, version, frames, dataless := run(true)
	wantRaw, wantVersion, wantFrames, _ := run(false)
	if dataless != 1 || frames != wantFrames+1 {
		t.Fatalf("%d release frames, %d data-less; want the data-less one and the %d of a full release", frames, dataless, wantFrames)
	}
	if !bytes.Equal(raw, wantRaw) || version != wantVersion {
		t.Fatalf("the home ended at version %d (want %d), bytes equal to a full release's: %v", version, wantVersion, bytes.Equal(raw, wantRaw))
	}
}

// TestLostCleanReleaseCompletesOnce: the data-less release request,
// and then its ack, are each lost once; the transport's retransmission
// completes the release with exactly one publish at the home.
func TestLostCleanReleaseCompletesOnce(t *testing.T) {
	for _, lose := range []struct {
		from string
		op   memproto.Op
	}{{"h0", memproto.OpRelease}, {"h1", memproto.OpReleaseAck}} {
		c := newCluster(t, 2)
		o, _ := c.makeObject(t, 1, bulkSize, "home v1")
		c.acquireExclusive(t, o)
		publishes := c.publishes(1)
		dropped := 0
		c.net.SetFrameControlHook(func(src, _ string, fr netsim.Frame) netsim.FrameControl {
			if m, ok := fragmentOf(src, lose.from, fr); ok && m.Op == lose.op && m.TotalLen == 0 && dropped == 0 {
				dropped++
				return netsim.FrameControl{Drop: true}
			}
			return netsim.FrameControl{}
		})
		c.release(t, o)
		if e, _ := c.nodes[1].st.Peek(o.ID()); dropped != 1 || *publishes != 1 || e.Version != 2 {
			t.Fatalf("%s lost %d times: %d publishes, home version %d; want one publish of version 2", lose.op, dropped, *publishes, e.Version)
		}
	}
}

// TestNoTwinOutlivesItsGrant: a twin goes when its copy loses the
// exclusive grant: to an invalidate, to eviction under a store budget,
// and to a crash.
func TestNoTwinOutlivesItsGrant(t *testing.T) {
	for name, lose := range map[string]func(c *cluster, o *object.Object){
		"invalidate": func(c *cluster, o *object.Object) {
			c.nodes[1].coh.WriteAt(o.ID(), o.HeapBase(), []byte("home write"))
			c.sim.Run()
		},
		"eviction": func(c *cluster, _ *object.Object) {
			other, _ := c.makeObject(t, 1, bulkSize, "other")
			c.nodes[0].coh.AcquireShared(other.ID())
			c.sim.Run()
		},
		"crash": func(c *cluster, _ *object.Object) {
			c.nodes[0].st.Clear()
			c.nodes[0].coh.Reset()
		},
	} {
		c := newCluster(t, 2)
		c.nodes[0].st = store.New(bulkSize + bulkSize/2)
		c.nodes[0].coh.store = c.nodes[0].st
		o, _ := c.makeObject(t, 1, bulkSize, "home v1")
		c.acquireExclusive(t, o)
		if len(c.nodes[0].coh.twins) != 1 {
			t.Fatalf("%s: an exclusive grant kept no twin", name)
		}
		lose(c, o)
		if c.nodes[0].st.Contains(o.ID()) {
			t.Fatalf("%s: the copy is still held", name)
		}
		if n := len(c.nodes[0].coh.twins); n != 0 {
			t.Fatalf("%s: %d twins outlived their grant", name, n)
		}
	}
}

// grantFrames counts the OpGrant frames h1 sends from now on, and how
// many of them carry no data.
func (c *cluster) grantFrames() (all, dataless *int) {
	all, dataless = new(int), new(int)
	c.net.SetFrameControlHook(func(src, _ string, fr netsim.Frame) netsim.FrameControl {
		if m, ok := fragmentOf(src, "h1", fr); ok && m.Op == memproto.OpGrant {
			*all++
			if m.TotalLen == 0 && len(m.Data) == 0 {
				*dataless++
			}
		}
		return netsim.FrameControl{}
	})
	return all, dataless
}

// TestCurrentCopyUpgradesWithoutData: a station that released its
// exclusive copy unchanged still holds the home's version, so its next
// exclusive acquire is granted in one data-less frame. The grant is
// installed as a data grant is: in the same region, exclusive, with a
// twin, so the next release of the unchanged copy is data-less too.
func TestCurrentCopyUpgradesWithoutData(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "home v1")
	first := c.acquireExclusive(t, o)
	c.release(t, o)
	grants, dataless := c.grantFrames()
	second := c.acquireExclusive(t, o)
	if *grants != 1 || *dataless != 1 || c.nodes[1].coh.Counters().UpgradesServed != 1 {
		t.Fatalf("%d grant frames, %d data-less, %d upgrades served; want one data-less grant",
			*grants, *dataless, c.nodes[1].coh.Counters().UpgradesServed)
	}
	e, _ := c.nodes[0].st.Peek(o.ID())
	home, _ := c.nodes[1].st.Peek(o.ID())
	if !sameRegion(first, second) || !bytes.Equal(second.Bytes(), o.Bytes()) || e.Version != home.Version ||
		c.nodes[0].coh.GrantedPerm(o.ID()) != memproto.PermExclusive || len(c.nodes[0].coh.twins) != 1 {
		t.Fatal("the upgrade was not installed as the home's version, exclusive, in place, with a twin")
	}
	all, dl := c.releaseFrames()
	c.release(t, o)
	if *all != 1 || *dl != 1 {
		t.Fatalf("the upgraded copy's release sent %d frames, %d data-less; want one data-less frame", *all, *dl)
	}
}

// TestUpgradeAfterLostInvalidateRefetches: station 0 acquires and
// releases, then station 2 writes, and every transmission of the
// invalidate to station 0 is lost, so station 0 still holds a copy, and
// the home's directory still lists it. Its next exclusive acquire
// offers that copy at its version, which is no longer the home's: the
// grant must carry station 2's bytes and version, into the region of
// the copy it replaces.
func TestUpgradeAfterLostInvalidateRefetches(t *testing.T) {
	c := newCluster(t, 3)
	o, off := c.makeObject(t, 1, bulkSize, "home v1")
	c.nodes[2].coh.ReadAt(o.ID(), off, 1) // locates the home while it is the only holder
	c.sim.Run()
	first := c.acquireExclusive(t, o)
	c.release(t, o)
	to0 := c.nodes[0].ep.Station()
	c.net.SetFrameControlHook(func(src, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		m, ok := fragmentOf(src, "h1", fr)
		return netsim.FrameControl{Drop: ok && m.Op == memproto.OpInvalidate && h.DecodeFrom(fr) == nil && h.Dst == to0}
	})
	var werr error
	c.nodes[2].coh.WriteAt(o.ID(), off, []byte("station 2 wrote")).Then(func(_ struct{}, err error) { werr = err })
	c.sim.Run()
	home, _ := c.nodes[1].st.Peek(o.ID())
	held, ok := c.nodes[0].st.Peek(o.ID())
	_, listed := c.nodes[1].coh.Directory().Epoch(o.ID(), to0)
	if werr != nil || !ok || held.Version >= home.Version || !listed {
		t.Fatalf("write err %v; station 0 holds a copy: %v, listed: %v; want a stale copy the lost invalidate left listed", werr, ok, listed)
	}
	c.net.SetFrameControlHook(nil)
	got := c.acquireExclusive(t, o)
	if e, _ := c.nodes[0].st.Peek(o.ID()); !bytes.Equal(got.Bytes(), home.Obj.Bytes()) || e.Version != home.Version {
		t.Fatalf("station 0 got version %d, want station 2's %d and its bytes (equal: %v)",
			e.Version, home.Version, bytes.Equal(got.Bytes(), home.Obj.Bytes()))
	}
	if !sameRegion(first, got) {
		t.Fatal("the grant did not land in the region of the copy it replaced")
	}
}
