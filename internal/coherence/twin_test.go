package coherence

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/store"
	"repro/internal/wire"
)

// frames counts every frame any host or switch sends from now on.
func (c *cluster) frames() *int {
	n := new(int)
	c.net.SetFrameControlHook(func(string, string, netsim.Frame) netsim.FrameControl {
		*n++
		return netsim.FrameControl{}
	})
	return n
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

// TestCleanReleaseSendsNothing: an exclusive copy of 64 KiB released
// as it was granted completes at the station. No frame crosses the
// fabric, the home publishes nothing and stays at its version, and the
// station keeps its copy, labeled that version, as a shared copy: its
// twin back on the scratch list and its lease ended.
func TestCleanReleaseSendsNothing(t *testing.T) {
	c, o := warmHome(t, 64<<10)
	home, st := c.nodes[1], c.nodes[0]
	e, _ := home.st.Peek(o.ID())
	want, version := e.Obj.CloneBytes(), e.Version
	publishes := c.publishes(1)

	cp := c.acquireExclusive(t, o)
	if len(st.coh.twins) != 1 {
		t.Fatal("an exclusive grant kept no twin")
	}
	scratch := len(st.coh.scratch)
	frames := c.frames()
	c.release(t, o)
	if *frames != 0 || *publishes != 0 {
		t.Fatalf("the release sent %d frames and the home published %d times; want none", *frames, *publishes)
	}
	if e, _ := home.st.Peek(o.ID()); !bytes.Equal(e.Obj.Bytes(), want) || e.Version != version {
		t.Fatalf("home at version %d (want %d), bytes kept: %v", e.Version, version, bytes.Equal(e.Obj.Bytes(), want))
	}
	if e, _ := st.st.Peek(o.ID()); e.Obj != cp || e.Version != version || st.coh.GrantedPerm(o.ID()) != memproto.PermShared {
		t.Fatal("the released copy is not the home's version, held shared")
	}
	if len(st.coh.twins) != 0 || len(st.coh.scratch) != scratch+1 || len(st.coh.leases) != 0 {
		t.Fatalf("%d twins, %d leases and %d scratch regions (want %d) after the release",
			len(st.coh.twins), len(st.coh.leases), len(st.coh.scratch), scratch+1)
	}
}

// TestCleanReleasedCopyStaysCovered: the station has been in the
// home's sharer set since its grant and stays there after a clean
// release, so the home's next write invalidates the copy it kept.
func TestCleanReleasedCopyStaysCovered(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, bulkSize, "home v1")
	c.acquireExclusive(t, o)
	c.release(t, o)
	st := c.nodes[0].ep.Station()
	if !slices.Contains(c.nodes[1].coh.SharerSet(o.ID()), st) {
		t.Fatal("a clean release left the home's sharer set")
	}
	c.nodes[1].coh.WriteAt(o.ID(), off, []byte("home v2"))
	c.sim.Run()
	if c.nodes[0].st.Contains(o.ID()) || slices.Contains(c.nodes[1].coh.SharerSet(o.ID()), st) {
		t.Fatal("the home's write did not invalidate the copy a clean release kept")
	}
}

// TestChangedCopyGoesHomeWithItsBytes: a copy that differs from its
// twin by one byte goes home in its fragments, and the home publishes
// it as a new version, which the releaser's copy is labeled with.
func TestChangedCopyGoesHomeWithItsBytes(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "home v1")
	publishes := c.publishes(1)
	cp := c.acquireExclusive(t, o)
	cp.Bytes()[cp.HeapBase()]++
	want := cp.CloneBytes()
	data := 0
	c.net.SetFrameControlHook(func(src, _ string, fr netsim.Frame) netsim.FrameControl {
		if m, ok := fragmentOf(src, "h0", fr); ok && m.Op == memproto.OpRelease {
			data += len(m.Data)
		}
		return netsim.FrameControl{}
	})
	c.release(t, o)
	home, _ := c.nodes[1].st.Peek(o.ID())
	if data != bulkSize || *publishes != 1 || home.Version != 2 || !bytes.Equal(o.Bytes(), want) {
		t.Fatalf("the release carried %d bytes (want %d); the home published %d times, is at version %d, holds the released bytes: %v",
			data, bulkSize, *publishes, home.Version, bytes.Equal(o.Bytes(), want))
	}
	if e, _ := c.nodes[0].st.Peek(o.ID()); e.Version != 2 || c.nodes[0].coh.GrantedPerm(o.ID()) != memproto.PermShared {
		t.Fatal("the released copy was not relabeled the home's new version, shared")
	}
}

// TestReleaseOfAnInvalidatedCopyFails: a home write invalidates a clean
// exclusive copy before its release, which then fails with ErrNotFound
// and sends nothing.
func TestReleaseOfAnInvalidatedCopyFails(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, bulkSize, "home v1")
	c.acquireExclusive(t, o)
	c.nodes[1].coh.WriteAt(o.ID(), off, []byte("home v2"))
	c.sim.Run()
	frames := c.frames()
	var err error
	c.nodes[0].coh.Release(o.ID()).Then(func(_ struct{}, e error) { err = e })
	c.sim.Run()
	if !errors.Is(err, store.ErrNotFound) || *frames != 0 {
		t.Fatalf("release of an invalidated copy: %v after %d frames; want store.ErrNotFound and none", err, *frames)
	}
}

// TestCrossingWriteOutlivesACleanRelease: the home writes its object
// while a station holds it exclusively and unchanged, and the station
// releases before the write's invalidate reaches it. The release is
// clean, so the home keeps its write at its version, and the station's
// stale copy goes when the invalidate lands.
func TestCrossingWriteOutlivesACleanRelease(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, bulkSize, "home v1")
	c.acquireExclusive(t, o)
	c.nodes[1].coh.WriteAt(o.ID(), off, []byte("the home moved on"))
	want := o.CloneBytes()
	var err error
	c.nodes[0].coh.Release(o.ID()).Then(func(_ struct{}, e error) { err = e })
	c.sim.Run()
	home, _ := c.nodes[1].st.Peek(o.ID())
	if err != nil || home.Version != 2 || !bytes.Equal(o.Bytes(), want) {
		t.Fatalf("release err %v; home at version %d (want 2), holds its write: %v", err, home.Version, bytes.Equal(o.Bytes(), want))
	}
	if c.nodes[0].st.Contains(o.ID()) {
		t.Fatal("the write's invalidate left the releaser's stale copy")
	}
}

// TestSilentlyReleasedCopyIsShared: after a clean release, another
// station takes a shared copy, which the home does not invalidate: the
// releaser no longer holds the object exclusively. Its next exclusive
// acquire is what invalidates that copy.
func TestSilentlyReleasedCopyIsShared(t *testing.T) {
	c := newCluster(t, 3)
	o, off := c.makeObject(t, 1, bulkSize, "home v1")
	c.nodes[2].coh.ReadAt(o.ID(), off, 1) // locates the home while it is the only holder
	c.sim.Run()
	c.acquireExclusive(t, o)
	c.release(t, o)
	var err error
	c.nodes[2].coh.AcquireShared(o.ID()).Then(func(_ *object.Object, e error) { err = e })
	c.sim.Run()
	if err != nil || !c.nodes[2].st.Contains(o.ID()) {
		t.Fatalf("station 2 took no shared copy: %v", err)
	}
	if g := c.nodes[0].coh.GrantedPerm(o.ID()); g != memproto.PermShared {
		t.Fatalf("station 0 holds %v beside station 2's shared copy; want shared", g)
	}
	c.acquireExclusive(t, o)
	if c.nodes[2].st.Contains(o.ID()) || c.nodes[0].coh.GrantedPerm(o.ID()) != memproto.PermExclusive {
		t.Fatal("station 0's exclusive acquire left station 2's shared copy")
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

// memFrames counts the memory-protocol frames h0 and h1 send from now
// on, and the object bytes h1's carry.
func (c *cluster) memFrames() (h0, h1, data *int) {
	h0, h1, data = new(int), new(int), new(int)
	c.net.SetFrameControlHook(func(src, _ string, fr netsim.Frame) netsim.FrameControl {
		if _, ok := fragmentOf(src, "h0", fr); ok {
			*h0++
		}
		if m, ok := fragmentOf(src, "h1", fr); ok {
			*h1++
			*data += len(m.Data)
		}
		return netsim.FrameControl{}
	})
	return h0, h1, data
}

// TestCleanReleasedCopyUpgradesWithoutData: a station that released
// its exclusive copy unchanged still holds the home's version, so its
// next exclusive acquire is one request answered by one data-less
// grant. The grant is installed as a data grant is: in the same region,
// exclusive, with a twin, so the next release of the unchanged copy is
// clean too.
func TestCleanReleasedCopyUpgradesWithoutData(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "home v1")
	first := c.acquireExclusive(t, o)
	c.release(t, o)
	requests, grants, data := c.memFrames()
	second := c.acquireExclusive(t, o)
	if *requests != 1 || *grants != 1 || *data != 0 || c.nodes[1].coh.Counters().UpgradesServed != 1 {
		t.Fatalf("%d requests, %d grants carrying %d bytes, %d upgrades served; want one request and one data-less grant",
			*requests, *grants, *data, c.nodes[1].coh.Counters().UpgradesServed)
	}
	e, _ := c.nodes[0].st.Peek(o.ID())
	home, _ := c.nodes[1].st.Peek(o.ID())
	if !sameRegion(first, second) || !bytes.Equal(second.Bytes(), o.Bytes()) || e.Version != home.Version ||
		c.nodes[0].coh.GrantedPerm(o.ID()) != memproto.PermExclusive || len(c.nodes[0].coh.twins) != 1 {
		t.Fatal("the upgrade was not installed as the home's version, exclusive, in place, with a twin")
	}
	frames := c.frames()
	c.release(t, o)
	if *frames != 0 {
		t.Fatalf("the upgraded copy's release sent %d frames; want none", *frames)
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
