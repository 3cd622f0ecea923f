package coherence

import (
	"bytes"
	"testing"

	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
)

// release pushes node 0's copy of obj home and requires the ack.
func (c *cluster) release(t *testing.T, obj *object.Object) {
	t.Helper()
	var done bool
	c.nodes[0].coh.Release(obj.ID()).Then(func(_ struct{}, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	c.sim.Run()
	if !done {
		t.Fatal("release never completed")
	}
}

// sameRegion reports whether two objects share their first byte.
func sameRegion(a, b *object.Object) bool { return &a.Bytes()[0] == &b.Bytes()[0] }

// TestExclusiveRefetchReusesAReleasedCopy is the rule's positive case:
// once its lease has ended, the copy an exclusive acquire replaces is
// the region the fetch lands in. The home writes in the instant the
// acquire leaves, so the write's invalidate crosses it and the copy it
// replaces is stale: the grant carries the object.
func TestExclusiveRefetchReusesAReleasedCopy(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, bulkSize, "home v1")
	first := c.acquireExclusive(t, o)
	c.release(t, o)
	c.nodes[1].coh.WriteAt(o.ID(), off, []byte("home v2"))
	second := c.acquireExclusive(t, o)
	if !bytes.Equal(second.Bytes(), o.Bytes()) || c.nodes[1].coh.Counters().UpgradesServed != 0 {
		t.Fatal("the grant did not carry the home's written bytes")
	}
	if !sameRegion(first, second) {
		t.Fatal("a released copy nobody else was handed was not refetched into")
	}
}

// TestSecondExclusiveHolderKeepsItsBytes (a): two local callers hold
// exclusive copies of one object. The first caller's Release pushes the
// second caller's copy, so only a count per object, not per copy, knows
// that the second lease is still held; neither copy may be refetched
// into, or offered to the home as current, while its holder has not
// released.
func TestSecondExclusiveHolderKeepsItsBytes(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "home v1")
	a := c.acquireExclusive(t, o)
	scribble(a, 0xA1)
	wantA := a.CloneBytes()
	b := c.acquireExclusive(t, o)
	if !bytes.Equal(a.Bytes(), wantA) {
		t.Fatal("a second exclusive acquire overwrote the first holder's copy")
	}
	if !bytes.Equal(b.Bytes(), o.Bytes()) {
		t.Fatal("a second exclusive acquire was handed the first holder's unreleased bytes")
	}
	c.release(t, o) // the first caller's release: it pushes b's copy
	scribble(b, 0xB2)
	wantB := b.CloneBytes()
	c.acquireExclusive(t, o)
	if !bytes.Equal(b.Bytes(), wantB) {
		t.Fatal("an exclusive acquire overwrote a copy whose lease was still held")
	}
}

// TestUnleasedHandoutsPinTheCopy (b): a copy handed out by
// AcquireShared, read locally through ReadAt, or read for a Release by a
// caller holding no lease, stays readable for life: no exclusive
// refetch lands in it, even after every lease on the object has ended.
func TestUnleasedHandoutsPinTheCopy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reach func(c *cluster, o *object.Object) []byte // what a caller at node 0 holds
	}{
		{"AcquireShared hit", func(c *cluster, o *object.Object) (b []byte) {
			c.acquireExclusive(t, o)
			c.release(t, o)
			c.nodes[0].coh.AcquireShared(o.ID()).Then(func(cp *object.Object, err error) { b = cp.Bytes() })
			return b
		}},
		{"ReadAt hit", func(c *cluster, o *object.Object) (b []byte) {
			c.acquireExclusive(t, o)
			c.release(t, o)
			c.nodes[0].coh.ReadAt(o.ID(), 4096, 64).Then(func(got []byte, err error) { b = got })
			return b
		}},
		{"Release with no lease, home not yet located", func(c *cluster, o *object.Object) []byte {
			c.acquireExclusive(t, o)
			c.release(t, o)
			e, _ := c.nodes[0].st.Peek(o.ID())
			c.nodes[0].e2e.Invalidate(o.ID())
			c.nodes[0].coh.Release(o.ID()) // reads the copy once the home answers
			return e.Obj.Bytes()
		}},
		{"AcquireShared beside an exclusive fetch", func(c *cluster, o *object.Object) (b []byte) {
			c.nodes[0].coh.AcquireExclusive(o.ID())
			c.nodes[0].coh.AcquireShared(o.ID()).Then(func(cp *object.Object, err error) { b = cp.Bytes() })
			c.sim.Run()
			c.release(t, o)
			return b
		}},
	} {
		c := newCluster(t, 2)
		o, _ := c.makeObject(t, 1, bulkSize, "home v1")
		held := tc.reach(c, o)
		if held == nil {
			t.Fatalf("%s: nothing was handed out", tc.name)
		}
		want := bytes.Clone(held)
		cp := c.acquireExclusive(t, o)
		scribble(cp, 0x5C)
		if !bytes.Equal(held, want) {
			t.Errorf("%s: an exclusive refetch landed in a copy a caller still holds", tc.name)
		}
	}
}

// warmHome sets up (c) and (d): a home of an object of size bytes
// whose first committed release put a scratch region on its list, so
// later releases reassemble there. The released copy differs from its
// grant by one byte, so the release carries its bytes.
func warmHome(t *testing.T, size int) (*cluster, *object.Object) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, size, "home v1")
	cp := c.acquireExclusive(t, o)
	cp.Bytes()[cp.HeapBase()]++
	c.release(t, o)
	if len(c.nodes[1].coh.scratch) == 0 {
		t.Fatal("a committed release left no scratch region at the home")
	}
	return c, o
}

// TestUnfinishedReleasesLeaveTheHomeAlone (c): a release that stalls,
// and one that starts over, leave the home copy's bytes and version as
// they were until a release completes.
func TestUnfinishedReleasesLeaveTheHomeAlone(t *testing.T) {
	c, o := warmHome(t, bulkSize)
	e, _ := c.nodes[1].st.Peek(o.ID())
	want, version := e.Obj.CloneBytes(), e.Version
	unchanged := func(when string) {
		t.Helper()
		if e, _ := c.nodes[1].st.Peek(o.ID()); !bytes.Equal(e.Obj.Bytes(), want) || e.Version != version {
			t.Fatalf("%s: the home copy changed (version %d, want %d)", when, e.Version, version)
		}
	}
	cp := c.acquireExclusive(t, o)
	c.dropFragment("h0", memproto.OpRelease, memproto.MaxFragData, -1)
	coh := c.nodes[0].coh
	scribble(cp, 0x11)
	coh.Release(o.ID())
	c.sim.RunFor(6 * netsim.Millisecond) // the sender timed out; the home holds the rest
	unchanged("mid-release")
	scribble(cp, 0x22)
	coh.Release(o.ID()) // its first fragment restarts the reassembly
	c.sim.RunFor(netsim.Millisecond)
	unchanged("restarted")
	c.sim.Run()
	unchanged("stalled")
	if n := len(c.nodes[1].coh.releases); n != 0 {
		t.Fatalf("home holds %d partial releases after the stall bound", n)
	}
}

// TestReleaseCommitsInPlace (d): a completed release is a whole-object
// write: the home's *Object stays the one every pointer into it names,
// holds the released bytes, and carries the bumped version.
func TestReleaseCommitsInPlace(t *testing.T) {
	c, o := warmHome(t, bulkSize)
	cp := c.acquireExclusive(t, o)
	scribble(cp, 0x3D)
	want := cp.CloneBytes()
	before, _ := c.nodes[1].st.Peek(o.ID())
	version := before.Version
	c.release(t, o)
	e, _ := c.nodes[1].st.Peek(o.ID())
	switch {
	case e.Obj != o:
		t.Fatal("the release replaced the home's *Object")
	case !bytes.Equal(o.Bytes(), want):
		t.Fatal("the home object does not hold the released bytes")
	case e.Version != version+1:
		t.Fatalf("home version = %d, want %d", e.Version, version+1)
	}
}
