package coherence

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/backend"
	"repro/internal/gasperr"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/realnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// bulkSize spans seven simulator-sized fragments, so a transfer has a
// first, mid-stream ones and a last (request) fragment.
const bulkSize = 200_000

// fragmentOf reports the memory-protocol op and fragment offset of a
// frame leaving host from, or ok=false for any other frame.
func fragmentOf(from, wantFrom string, fr netsim.Frame) (m memproto.Msg, ok bool) {
	var h wire.Header
	if from != wantFrom || h.DecodeFrom(fr) != nil || h.Type != wire.MsgMem {
		return m, false
	}
	return m, m.Unmarshal(fr[h.WireLen():]) == nil
}

// TestFragmentsAreTheTransferUnitOnBothBackends: a node sizes grant
// and release fragments to its link, and on either backend that is
// memproto's one transfer unit — the simulator's links have no MTU, and
// a realnet datagram has room for more.
func TestFragmentsAreTheTransferUnitOnBothBackends(t *testing.T) {
	host, err := netsim.NewHost(netsim.NewNetwork(netsim.NewSim(1)), "h0")
	if err != nil {
		t.Fatal(err)
	}
	rc := realnet.NewCluster()
	defer rc.Close()
	link, err := rc.NewLink("r0", 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]backend.Link{"netsim": host, "realnet": link} {
		n := &Node{ep: transport.NewEndpoint(l, 1, transport.Config{})}
		if m, _ := memproto.NextFragment(make([]byte, 64<<10), 1, n.maxFragData(), 0); len(m.Data) != memproto.MaxFragData {
			t.Errorf("%s: a fragment carries %d bytes, want memproto.MaxFragData %d", name, len(m.Data), memproto.MaxFragData)
		}
	}
}

// scribble overwrites an object's heap in place, as a caller that got
// its region back would.
func scribble(o *object.Object, with byte) {
	b := o.Bytes()
	for i := int(o.HeapBase()); i < len(b); i++ {
		b[i] = with
	}
}

// dropFragment drops the first `times` transmissions of the fragment
// with op and offset off that host from sends (times < 0: every one).
func (c *cluster) dropFragment(from string, op memproto.Op, off uint64, times int) *int {
	dropped := new(int)
	c.net.SetFrameControlHook(func(src, _ string, fr netsim.Frame) netsim.FrameControl {
		m, ok := fragmentOf(src, from, fr)
		if !ok || m.Op != op || m.FragOffset != off || len(m.Data) == 0 {
			return netsim.FrameControl{}
		}
		if times >= 0 && *dropped >= times {
			return netsim.FrameControl{}
		}
		*dropped++
		return netsim.FrameControl{Drop: true}
	})
	return dropped
}

// TestGrantSendsTheBytesItWasServedWith: serveAcquire streams fragments
// from the home object's own region, so the region must have been read
// in full by the time it returns — a fragment lost afterwards is
// retransmitted from its frame, not read again.
func TestGrantSendsTheBytesItWasServedWith(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "granted as it stood")
	want := o.CloneBytes()
	home := c.nodes[1]
	home.ep.SetHandler(func(h *wire.Header, p []byte) {
		if home.e2e.HandleFrame(h, p) {
			return
		}
		var m memproto.Msg
		acquire := h.Type == wire.MsgMem && m.Unmarshal(p) == nil && m.Op == memproto.OpAcquire
		home.coh.HandleFrame(h, p)
		if acquire {
			scribble(o, 0xEE) // the home writes its object the moment the grant is out
		}
	})
	dropped := c.dropFragment("h1", memproto.OpObjectPush, memproto.MaxFragData, 1)

	var got *object.Object
	c.nodes[0].coh.AcquireShared(o.ID()).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.sim.Run()
	if *dropped != 1 {
		t.Fatalf("dropped %d push fragments, want 1", *dropped)
	}
	if got == nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatal("requester installed bytes the home wrote after serving the acquire")
	}
	if c.nodes[1].ep.Counters().Retransmits == 0 {
		t.Fatal("the dropped fragment was never retransmitted")
	}
}

// acquireExclusive fetches an exclusive copy of obj at node 0.
func (c *cluster) acquireExclusive(t *testing.T, obj *object.Object) *object.Object {
	t.Helper()
	var cp *object.Object
	c.nodes[0].coh.AcquireExclusive(obj.ID()).Then(func(o *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		cp = o
	})
	c.sim.Run()
	if cp == nil {
		t.Fatal("exclusive acquire never completed")
	}
	return cp
}

// TestReleaseSendsTheBytesItWasCalledWith is the same property for
// Release with a warm destination cache: the copy is the caller's
// again when Release returns, dropped fragment or not.
func TestReleaseSendsTheBytesItWasCalledWith(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "home v1")
	cp := c.acquireExclusive(t, o)
	scribble(cp, 0x11)
	want := cp.CloneBytes()
	dropped := c.dropFragment("h0", memproto.OpRelease, memproto.MaxFragData, 1)

	var done bool
	c.nodes[0].coh.Release(o.ID()).Then(func(_ struct{}, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	scribble(cp, 0x22)
	c.sim.Run()
	if !done || *dropped != 1 {
		t.Fatalf("done=%v dropped=%d", done, *dropped)
	}
	e, ok := c.nodes[1].st.Peek(o.ID())
	if !ok {
		t.Fatal("home lost the object")
	}
	if !bytes.Equal(e.Obj.Bytes(), want) {
		t.Fatal("home installed bytes written after Release returned")
	}
	if e.Version != 2 {
		t.Fatalf("home version = %d, want 2", e.Version)
	}
}

// TestHalfReceivedReleaseIsDropped: a release whose mid-stream fragment
// is lost for good must not leave its region with the home forever.
func TestHalfReceivedReleaseIsDropped(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "home v1")
	cp := c.acquireExclusive(t, o)
	scribble(cp, 0x11)
	c.dropFragment("h0", memproto.OpRelease, memproto.MaxFragData, -1)

	var relErr error
	c.nodes[0].coh.Release(o.ID()).Then(func(_ struct{}, err error) { relErr = err })
	home := c.nodes[1].coh
	c.sim.RunFor(6 * netsim.Millisecond) // past the request timeout, short of the stall bound
	if !errors.Is(relErr, gasperr.ErrTimeout) {
		t.Fatalf("release error = %v, want a timeout", relErr)
	}
	if len(home.releases) != 1 {
		t.Fatalf("home holds %d partial releases before the stall bound, want 1", len(home.releases))
	}
	c.sim.Run()
	if len(home.releases) != 0 {
		t.Fatalf("home still holds %d partial releases after the stall bound", len(home.releases))
	}
	if e, _ := c.nodes[1].st.Peek(o.ID()); e.Version != 1 {
		t.Fatalf("home version = %d after a release that never completed, want 1", e.Version)
	}
}

// TestRetriedReleaseStartsOver: the caller retries the moment the first
// attempt times out, while the home still holds that attempt's first
// and last fragments. The retry's first fragment must start the
// reassembly over; otherwise its second fragment completes a transfer
// made of both attempts' bytes, on a frame that was never a request.
func TestRetriedReleaseStartsOver(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, bulkSize, "home v1")
	cp := c.acquireExclusive(t, o)
	scribble(cp, 0x11)
	// Every transmission of the first attempt's second fragment is
	// lost; the hook is lifted before the retry.
	c.dropFragment("h0", memproto.OpRelease, memproto.MaxFragData, -1)

	var want []byte
	var retried, done bool
	coh := c.nodes[0].coh
	coh.Release(o.ID()).Then(func(_ struct{}, err error) {
		if err == nil {
			t.Fatal("first attempt succeeded without its second fragment")
		}
		c.net.SetFrameControlHook(nil)
		scribble(cp, 0x33)
		want = cp.CloneBytes()
		retried = true
		coh.Release(o.ID()).Then(func(_ struct{}, err error) {
			if err != nil {
				t.Fatalf("retried release: %v", err)
			}
			done = true
		})
	})
	c.sim.Run()
	if !retried || !done {
		t.Fatalf("retried=%v done=%v", retried, done)
	}
	e, ok := c.nodes[1].st.Peek(o.ID())
	if !ok {
		t.Fatal("home lost the object")
	}
	if !bytes.Equal(e.Obj.Bytes(), want) {
		t.Fatal("home installed a mixture of the two attempts")
	}
	if e.Version != 2 {
		t.Fatalf("home version = %d, want 2 (one release applied)", e.Version)
	}
	if n := len(c.nodes[1].coh.releases); n != 0 {
		t.Fatalf("home holds %d partial releases after the retry completed", n)
	}
}

// TestReleaseToANonHomeReassemblesNothing: a release's first frame sizes
// the region it lands in, and OpRelease is accepted from any station for
// any object. A node without a home copy must not hold such a region
// until the stall bound: it drops a fragment that is not the request,
// and answers the request NotFound at once.
func TestReleaseToANonHomeReassemblesNothing(t *testing.T) {
	c := newCluster(t, 2)
	peer := c.nodes[1].coh
	const total = 1 << 20
	data := make([]byte, 1000)
	first := memproto.Msg{Op: memproto.OpRelease, TotalLen: total, Data: data}
	if _, err := c.nodes[0].ep.SendReliable(wire.Header{Type: wire.MsgMem, Dst: 2, Object: gen.New()},
		first.Marshal(nil), nil); err != nil {
		t.Fatal(err)
	}
	last := memproto.Msg{Op: memproto.OpRelease, TotalLen: total, FragOffset: total - uint64(len(data)), Data: data}
	var status memproto.Status
	var answered bool
	if _, err := c.nodes[0].ep.Request(wire.Header{Type: wire.MsgMem, Dst: 2, Object: gen.New()}, last.Marshal(nil), 0,
		func(_ *wire.Header, payload []byte, err error) {
			var rm memproto.Msg
			if err == nil && rm.Unmarshal(payload) == nil {
				status, answered = rm.Status, true
			}
		}); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(memproto.StallTimeout / 10)
	if n := len(peer.releases); n != 0 {
		t.Errorf("non-home holds %d partial releases", n)
	}
	if !answered || status != memproto.StatusNotFound {
		t.Errorf("request answered=%v status=%v, want not found", answered, status)
	}
	if got := peer.Counters().NotFoundServed; got != 1 {
		t.Errorf("NotFoundServed = %d, want 1", got)
	}
}

// TestHostileReleaseCannotCrashAHome: OpRelease is accepted from any
// station, and TotalLen and FragOffset are 64 bits on the wire. A
// TotalLen within the transfer cap but above the object's size would
// hold a region that large until the stall timeout, unanswered, whether
// it opens a release or restarts one. A release without data, which no
// station sends, claims a TotalLen of 0, not the object's size, alone
// or after a half release.
// Each input's last message is the request; any before it are pushes.
func TestHostileReleaseCannotCrashAHome(t *testing.T) {
	c := newCluster(t, 2)
	o, _ := c.makeObject(t, 1, 4096, "victim")
	opening := memproto.Msg{Op: memproto.OpRelease, TotalLen: uint64(o.Size()), Data: make([]byte, 1000)}
	for name, ms := range map[string][]memproto.Msg{
		"huge total":       {{Op: memproto.OpRelease, TotalLen: 1 << 62, Data: []byte("x")}},
		"offset wraps":     {{Op: memproto.OpRelease, TotalLen: 64, FragOffset: ^uint64(0) - 3, Data: []byte("12345678")}},
		"above the cap":    {{Op: memproto.OpRelease, TotalLen: memproto.MaxTransferLen + 1}},
		"beyond its own":   {{Op: memproto.OpRelease, TotalLen: 4, Data: []byte("12345678")}},
		"above the object": {{Op: memproto.OpRelease, TotalLen: memproto.MaxTransferLen, Data: []byte("x")}},
		"restarted above the object": {opening,
			{Op: memproto.OpRelease, TotalLen: memproto.MaxTransferLen, Data: []byte("x")}},
		"data-less at another version":   {{Op: memproto.OpRelease, Version: 99}},
		"data-less after a half release": {opening, {Op: memproto.OpRelease, Version: 99}},
	} {
		h := wire.Header{Type: wire.MsgMem, Dst: 2, Object: o.ID()}
		for _, m := range ms[:len(ms)-1] {
			if _, err := c.nodes[0].ep.SendReliable(h, m.Marshal(nil), nil); err != nil {
				t.Fatal(err)
			}
		}
		var status memproto.Status
		var answered bool
		_, err := c.nodes[0].ep.Request(h, ms[len(ms)-1].Marshal(nil), 0,
			func(_ *wire.Header, payload []byte, err error) {
				var rm memproto.Msg
				if err == nil && rm.Unmarshal(payload) == nil {
					status, answered = rm.Status, true
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		c.sim.Run()
		if !answered || status != memproto.StatusConflict {
			t.Errorf("%s: answered=%v status=%v, want a conflict", name, answered, status)
		}
		if n := len(c.nodes[1].coh.releases); n != 0 {
			t.Errorf("%s: home kept %d partial releases", name, n)
		}
	}
}
