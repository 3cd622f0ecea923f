package coherence

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

var gen = oid.NewSeededGenerator(41)

type tnode struct {
	ep  *transport.Endpoint
	st  *store.Store
	e2e *discovery.E2E
	coh *Node
}

type cluster struct {
	sim   *netsim.Sim
	net   *netsim.Network
	nodes []*tnode
}

// newCluster builds a star fabric with E2E discovery on every node.
func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	sim := netsim.NewSim(13)
	net := netsim.NewNetwork(sim)
	sw, err := p4sim.NewSwitch(net, "sw", n, p4sim.SwitchConfig{LearnStations: true})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{sim: sim, net: net}
	for i := 0; i < n; i++ {
		h, err := netsim.NewHost(net, "h"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(h, 0, sw, i, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		ep := transport.NewEndpoint(h, wire.StationID(i+1), transport.Config{})
		st := store.New(0)
		e2e := discovery.NewE2E(ep, st.Contains, discovery.Config{Timeout: 500 * netsim.Microsecond})
		coh := NewNode(ep, st, e2e)
		nd := &tnode{ep: ep, st: st, e2e: e2e, coh: coh}
		ep.SetHandler(func(h *wire.Header, p []byte) {
			if nd.e2e.HandleFrame(h, p) {
				return
			}
			nd.coh.HandleFrame(h, p)
		})
		c.nodes = append(c.nodes, nd)
	}
	return c
}

// makeObject creates an object homed at node idx with a marker string.
func (c *cluster) makeObject(t *testing.T, idx int, size int, marker string) (*object.Object, uint64) {
	t.Helper()
	o, err := object.New(gen.New(), size, 8)
	if err != nil {
		t.Fatal(err)
	}
	off, err := o.AllocString(marker)
	if err != nil {
		t.Fatal(err)
	}
	nd := c.nodes[idx]
	if err := nd.st.Put(o, 1, true); err != nil {
		t.Fatal(err)
	}
	nd.e2e.Announce(o.ID())
	return o, off
}

// move migrates an object's home between nodes (the Figure 3 workload).
func (c *cluster) move(t *testing.T, obj oid.ID, from, to int) {
	t.Helper()
	f, tn := c.nodes[from], c.nodes[to]
	e, ok := f.st.Peek(obj)
	if !ok {
		t.Fatalf("move: %s is not at node %d", obj.Short(), from)
	}
	raw := e.Obj.CloneBytes()
	v := e.Version
	if err := f.st.Delete(obj); err != nil {
		t.Fatal(err)
	}
	f.e2e.Withdraw(obj)
	o, err := object.FromBytes(obj, raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.st.Put(o, v, true); err != nil {
		t.Fatal(err)
	}
	tn.e2e.Announce(obj)
}

func TestAcquireLocalHit(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 0, 4096, "local")
	var got *object.Object
	c.nodes[0].coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.sim.Run()
	if got == nil || got.ID() != o.ID() {
		t.Fatal("local acquire failed")
	}
	if c.nodes[0].coh.Counters().LocalHits != 1 {
		t.Fatalf("counters = %+v", c.nodes[0].coh.Counters())
	}
}

func TestAcquireRemoteCaches(t *testing.T) {
	c := newCluster(t, 3)
	o, off := c.makeObject(t, 1, 4096, "remote payload")
	reader := c.nodes[0]
	var got *object.Object
	reader.coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.sim.Run()
	if got == nil {
		t.Fatal("no object")
	}
	s, err := got.LoadString(off)
	if err != nil || s != "remote payload" {
		t.Fatalf("payload = %q, %v", s, err)
	}
	if !reader.st.Contains(o.ID()) {
		t.Fatal("acquired copy not cached")
	}
	// Directory at home records the sharer.
	if got := c.nodes[1].coh.SharerSet(o.ID()); len(got) != 1 || got[0] != reader.ep.Station() {
		t.Fatalf("SharerSet = %v", got)
	}
	// Second acquire is local.
	reader.coh.ResetCounters()
	reader.coh.AcquireShared(o.ID())
	c.sim.Run()
	if reader.coh.Counters().LocalHits != 1 {
		t.Fatal("second acquire went remote")
	}
}

func TestAcquireLargeObjectFragments(t *testing.T) {
	c := newCluster(t, 2)
	// 300 KB object: several 64 KB fragments.
	o, off := c.makeObject(t, 1, 300_000, "big object marker")
	var got *object.Object
	var gotErr error
	c.nodes[0].coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) {
		got, gotErr = obj, err
	})
	c.sim.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got.Size() != 300_000 {
		t.Fatalf("size = %d", got.Size())
	}
	s, err := got.LoadString(off)
	if err != nil || s != "big object marker" {
		t.Fatalf("marker = %q, %v", s, err)
	}
	if got.Checksum() != o.Checksum() {
		t.Fatal("checksum mismatch after fragmented transfer")
	}
}

func TestAcquireCoalescing(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, 4096, "x")
	reader := c.nodes[0]
	done := 0
	for i := 0; i < 5; i++ {
		reader.coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done++
		})
	}
	c.sim.Run()
	if done != 5 {
		t.Fatalf("callbacks = %d", done)
	}
	if reader.coh.Counters().RemoteAcquires != 1 {
		t.Fatalf("RemoteAcquires = %d, want 1 (coalesced)", reader.coh.Counters().RemoteAcquires)
	}
}

func TestReadAtRemote(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, 4096, "read me")
	var got []byte
	c.nodes[0].coh.ReadAt(o.ID(), off+8, 7).Then(func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = append([]byte(nil), b...)
	})
	c.sim.Run()
	if string(got) != "read me" {
		t.Fatalf("got %q", got)
	}
	// Bus-style read must not cache the object.
	if c.nodes[0].st.Contains(o.ID()) {
		t.Fatal("ReadAt cached the object")
	}
}

func TestReadAtOutOfRange(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, 4096, "x")
	var gotErr error
	c.nodes[0].coh.ReadAt(o.ID(), 1<<20, 8).Then(func(b []byte, err error) { gotErr = err })
	c.sim.Run()
	if gotErr == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestWriteAtRemoteInvalidatesSharers(t *testing.T) {
	c := newCluster(t, 3)
	o, off := c.makeObject(t, 0, 4096, "original")
	// Node 2 caches a copy.
	c.nodes[2].coh.AcquireShared(o.ID())
	c.sim.Run()
	if !c.nodes[2].st.Contains(o.ID()) {
		t.Fatal("setup: no cached copy")
	}
	// Node 1 writes remotely to home (node 0).
	var werr error
	c.nodes[1].coh.WriteAt(o.ID(), off+8, []byte("CLOBBER!")).Then(func(_ struct{}, err error) { werr = err })
	c.sim.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	// Home applied and bumped version.
	home, _ := c.nodes[0].st.Peek(o.ID())
	s, _ := home.Obj.LoadString(off)
	if s != "CLOBBER!" {
		t.Fatalf("home content = %q", s)
	}
	if home.Version != 2 {
		t.Fatalf("home version = %d", home.Version)
	}
	// Sharer's copy invalidated.
	if c.nodes[2].st.Contains(o.ID()) {
		t.Fatal("stale sharer copy survived write")
	}
	if c.nodes[2].coh.Counters().InvalidatesRecv != 1 {
		t.Fatalf("InvalidatesRecv = %d", c.nodes[2].coh.Counters().InvalidatesRecv)
	}
}

func TestWriteAtLocalHome(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 0, 4096, "original")
	var werr error
	c.nodes[0].coh.WriteAt(o.ID(), off+8, []byte("NEWDATA!")).Then(func(_ struct{}, err error) { werr = err })
	c.sim.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	e, _ := c.nodes[0].st.Peek(o.ID())
	if e.Version != 2 {
		t.Fatalf("version = %d", e.Version)
	}
}

func TestStaleLocationRetry(t *testing.T) {
	// The Figure 3 mechanism: a cached destination goes stale after
	// movement; the access NACKs, rediscovers, and succeeds.
	c := newCluster(t, 3)
	o, off := c.makeObject(t, 1, 4096, "moving target")
	reader := c.nodes[0]
	// Warm reader's destination cache.
	var warm []byte
	reader.coh.ReadAt(o.ID(), off+8, 6).Then(func(b []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		warm = b
	})
	c.sim.Run()
	if string(warm) != "moving" {
		t.Fatalf("warm read = %q", warm)
	}
	// Move the object 1 → 2; reader's cache still points at 1.
	c.move(t, o.ID(), 1, 2)
	var got []byte
	var gotErr error
	reader.coh.ReadAt(o.ID(), off+8, 6).Then(func(b []byte, err error) {
		got, gotErr = append([]byte(nil), b...), err
	})
	c.sim.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if string(got) != "moving" {
		t.Fatalf("post-move read = %q", got)
	}
	if reader.coh.Counters().StaleRetries == 0 {
		t.Fatal("no stale retry recorded")
	}
	if c.nodes[1].coh.Counters().NotFoundServed == 0 {
		t.Fatal("old home never NACKed")
	}
}

func TestAcquireNonexistentFails(t *testing.T) {
	c := newCluster(t, 2)
	var gotErr error
	c.nodes[0].coh.AcquireShared(gen.New()).Then(func(_ *object.Object, err error) { gotErr = err })
	c.sim.Run()
	if !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestExclusiveAcquireInvalidatesOthers(t *testing.T) {
	c := newCluster(t, 3)
	o, _ := c.makeObject(t, 0, 4096, "x")
	// Node 1 holds a shared copy.
	c.nodes[1].coh.AcquireShared(o.ID())
	c.sim.Run()
	// Node 2 acquires exclusively via the wire path.
	home := c.nodes[0]
	_ = home
	var done bool
	n2 := c.nodes[2]
	n2.coh.AcquireShared(o.ID()) // shared first to have it resolve
	c.sim.Run()
	// Directly exercise exclusive semantics at the home: a write
	// invalidates both sharers.
	var werr error
	n2.coh.WriteAt(o.ID(), object.HeaderSize+64*24, []byte("12345678")).Then(func(_ struct{}, err error) { werr = err })
	c.sim.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	done = !c.nodes[1].st.Contains(o.ID()) && !n2.st.Contains(o.ID())
	if !done {
		t.Fatal("write did not invalidate sharers")
	}
	_ = done
}

func TestAcquireExclusiveInvalidatesSharers(t *testing.T) {
	c := newCluster(t, 3)
	o, off := c.makeObject(t, 0, 4096, "shared state")
	// Node 1 holds a shared copy.
	c.nodes[1].coh.AcquireShared(o.ID())
	c.sim.Run()
	if !c.nodes[1].st.Contains(o.ID()) {
		t.Fatal("setup: no shared copy")
	}
	// Node 2 acquires exclusively: node 1's copy must go.
	var excl *object.Object
	c.nodes[2].coh.AcquireExclusive(o.ID()).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		excl = obj
	})
	c.sim.Run()
	if excl == nil {
		t.Fatal("exclusive acquire incomplete")
	}
	if c.nodes[1].st.Contains(o.ID()) {
		t.Fatal("sharer survived exclusive acquire")
	}
	// Mutate and release: the home converges.
	if err := excl.WriteAt(off+8, []byte("EXCLUSIVE WR")); err != nil {
		t.Fatal(err)
	}
	var rerr error
	c.nodes[2].coh.Release(o.ID()).Then(func(_ struct{}, err error) { rerr = err })
	c.sim.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	home, _ := c.nodes[0].st.Peek(o.ID())
	got, _ := home.Obj.ReadAt(off+8, 12)
	if string(got) != "EXCLUSIVE WR" {
		t.Fatalf("home = %q", got)
	}
	if home.Version != 2 {
		t.Fatalf("home version = %d", home.Version)
	}
}

func TestAcquireExclusiveAtHome(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 0, 4096, "x")
	// Remote sharer first.
	c.nodes[1].coh.AcquireShared(o.ID())
	c.sim.Run()
	var got *object.Object
	c.nodes[0].coh.AcquireExclusive(o.ID()).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.sim.Run()
	if got == nil || got.ID() != o.ID() {
		t.Fatal("home exclusive acquire failed")
	}
	if c.nodes[1].st.Contains(o.ID()) {
		t.Fatal("remote sharer survived home exclusive acquire")
	}
}

func TestReleasePushesDirtyCopyHome(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, 4096, "original")
	reader := c.nodes[0]
	var cached *object.Object
	reader.coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		cached = obj
	})
	c.sim.Run()
	// Mutate the cached copy and release it.
	if err := cached.WriteAt(off+8, []byte("MUTATED!")); err != nil {
		t.Fatal(err)
	}
	var rerr error
	reader.coh.Release(o.ID()).Then(func(_ struct{}, err error) { rerr = err })
	c.sim.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	homeEntry, ok := c.nodes[1].st.Peek(o.ID())
	if !ok {
		t.Fatal("home lost the object")
	}
	s, _ := homeEntry.Obj.LoadString(off)
	if s != "MUTATED!" {
		t.Fatalf("home content = %q", s)
	}
	if homeEntry.Version != 2 {
		t.Fatalf("home version = %d", homeEntry.Version)
	}
	// The copy the releaser keeps holds the bytes the home published as
	// version 2, and says so: a copy labeled 1 would read as stale.
	if e, ok := reader.st.Peek(o.ID()); !ok {
		t.Fatal("releaser dropped its copy")
	} else if e.Version != 2 {
		t.Fatalf("retained copy labeled version %d, want 2", e.Version)
	}
}

func TestReleaseOfHomeObjectIsNoop(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 0, 4096, "x")
	var rerr error
	c.nodes[0].coh.Release(o.ID()).Then(func(_ struct{}, err error) { rerr = err })
	c.sim.Run()
	if rerr != nil {
		t.Fatalf("home release: %v", rerr)
	}
}

func TestReleaseLargeObject(t *testing.T) {
	c := newCluster(t, 2)
	o, off := c.makeObject(t, 1, 200_000, "large original")
	reader := c.nodes[0]
	var cached *object.Object
	reader.coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) { cached = obj })
	c.sim.Run()
	if cached == nil {
		t.Fatal("acquire failed")
	}
	cached.WriteAt(off+8, []byte("LARGE MUTATED"))
	var rerr error
	reader.coh.Release(o.ID()).Then(func(_ struct{}, err error) { rerr = err })
	c.sim.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	homeEntry, _ := c.nodes[1].st.Peek(o.ID())
	got, _ := homeEntry.Obj.ReadAt(off+8, 13)
	if !bytes.Equal(got, []byte("LARGE MUTATED")) {
		t.Fatalf("home content = %q", got)
	}
}

func TestStoreAccessor(t *testing.T) {
	c := newCluster(t, 1)
	if c.nodes[0].coh.Store() != c.nodes[0].st {
		t.Fatal("Store accessor")
	}
}

// TestDuplicatedPushUnderLossNeverHoley is the reassembly regression
// for the duplicate-byte completion bug: under 25% frame loss with
// every frame duplicated in flight, cross-attempt duplicate fragments
// plus losses must never let an acquire complete with a hole — every
// successful acquire yields a byte-exact copy of the home object.
func TestDuplicatedPushUnderLossNeverHoley(t *testing.T) {
	c := newCluster(t, 2)
	// 200 KB object: several 64 KB fragments per grant.
	o, _ := c.makeObject(t, 1, 200_000, "dup-loss payload")
	loss := rand.New(rand.NewSource(1))
	c.net.SetFrameControlHook(func(from, to string, fr netsim.Frame) netsim.FrameControl {
		return netsim.FrameControl{Dup: true, Drop: loss.Float64() < 0.25}
	})
	reader := c.nodes[0].coh
	successes := 0
	for round := 0; round < 20; round++ {
		var got *object.Object
		var gotErr error
		var attempt func(left int)
		attempt = func(left int) {
			reader.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) {
				if err != nil && left > 1 {
					c.sim.Schedule(250*netsim.Microsecond, func() { attempt(left - 1) })
					return
				}
				got, gotErr = obj, err
			})
		}
		attempt(8)
		c.sim.Run()
		if gotErr != nil {
			continue // all attempts lost; nothing may be cached hole-y either
		}
		successes++
		if got.Checksum() != o.Checksum() {
			t.Fatalf("round %d: acquired copy diverges from home (hole-y object)", round)
		}
		// Drop the cached copy so the next round refetches over the
		// lossy, duplicating fabric.
		if err := c.nodes[0].st.Invalidate(o.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if successes == 0 {
		t.Fatal("no acquire ever succeeded; loss model too aggressive for the retry budget")
	}
}
