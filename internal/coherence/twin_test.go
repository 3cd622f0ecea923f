package coherence

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/store"
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
