package rpc

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// chunk is one request envelope as an adversary may send it: offset and
// total are whatever it likes.
type chunk struct {
	off, total uint64
	data       []byte
}

// serve hands the chunks of one call to a fresh server and returns the
// arguments its handler was run with (nil, false when it never ran) and
// the number of half-received calls the server still holds.
func serve(t *testing.T, chunks []chunk) (args []byte, served bool, held int) {
	t.Helper()
	r := newRig(t, netsim.LinkConfig{})
	r.server.Register("m", func(a []byte) ([]byte, error) {
		if served {
			t.Error("handler ran twice for one call")
		}
		args, served = a, true
		return nil, nil
	})
	for i, c := range chunks {
		ev := envelope{kind: kindRequest, callID: 7, method: "m", fragOff: c.off, total: c.total, data: c.data}
		r.server.HandleFrame(&wire.Header{Type: wire.MsgRPC, Src: 1, Dst: 2, Seq: uint64(i + 1)}, ev.marshal())
	}
	return args, served, len(r.server.inbound)
}

// TestAssemblyFromTheWire: a chunk's offset and total are 64-bit wire
// fields. The first three cases each took a server down or fooled it
// before bodies were reassembled by memproto.Reassembler.
func TestAssemblyFromTheWire(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chunks []chunk
		want   []byte // nil: the handler must not run
		held   int
	}{
		{"total sizes an allocation", []chunk{{0, 1 << 62, []byte{1}}}, nil, 0},
		{"offset+len wraps", []chunk{{^uint64(0), 4, []byte{1, 2}}}, nil, 0},
		{"the same chunk twice is not the whole body", []chunk{{0, 4, []byte{1, 2}}, {0, 4, []byte{1, 2}}}, nil, 1},
		{"total above the cap", []chunk{{0, memproto.MaxTransferLen + 1, nil}}, nil, 0},
		{"chunk beyond its own total", []chunk{{2, 4, []byte{1, 2, 3}}}, nil, 0},
		{"totals disagree", []chunk{{0, 4, []byte{1, 2}}, {2, 5, []byte{3, 4}}}, nil, 0},
		{"out of order, overlapping, complete", []chunk{{2, 4, []byte{3, 4}}, {1, 4, []byte{2, 3}}, {0, 4, []byte{1}}}, []byte{1, 2, 3, 4}, 0},
		{"empty body", []chunk{{0, 0, nil}}, []byte{}, 0},
	} {
		args, served, held := serve(t, tc.chunks)
		if served != (tc.want != nil) || !bytes.Equal(args, tc.want) || held != tc.held {
			t.Errorf("%s: served=%v args=%v held=%d, want served=%v args=%v held=%d",
				tc.name, served, args, held, tc.want != nil, tc.want, tc.held)
		}
	}
}

// TestStalledCallsExpire: a sender of first chunks cannot grow a server
// without bound. A call that has made no progress for
// memproto.StallTimeout is dropped when a later chunk arrives; a call
// whose chunks keep coming, however slowly, still completes.
func TestStalledCallsExpire(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	var served []byte
	r.server.Register("m", func(a []byte) ([]byte, error) {
		served = a
		return nil, nil
	})
	seq := uint64(0)
	send := func(id, off, total uint64, data []byte) {
		seq++
		ev := envelope{kind: kindRequest, callID: id, method: "m", fragOff: off, total: total, data: data}
		r.server.HandleFrame(&wire.Header{Type: wire.MsgRPC, Src: 1, Dst: 2, Seq: seq}, ev.marshal())
	}
	// Ten ticks of 0.6 windows: each sends 100 first chunks of calls that
	// never finish and one byte of a slow call that spans three windows.
	slow := []byte("slow but steady")
	for tick := 0; tick < 10; tick++ {
		for j := 0; j < 100; j++ {
			send(uint64(1000+100*tick+j), 0, 64<<10, make([]byte, 1024))
		}
		for k := tick * 3 / 2; k < len(slow) && k < (tick+1)*3/2; k++ {
			send(1, uint64(k), uint64(len(slow)), slow[k:k+1])
		}
		// A call lives at most one window past its last chunk plus the
		// window until the next sweep: four ticks of calls.
		if n := len(r.server.inbound); n > 4*100+1 {
			t.Fatalf("tick %d: server holds %d half-received calls", tick, n)
		}
		r.sim.RunFor(memproto.StallTimeout * 6 / 10)
	}
	if !bytes.Equal(served, slow) {
		t.Fatalf("slow call served %q, want %q", served, slow)
	}
	r.sim.RunFor(memproto.StallTimeout)
	send(5000, 0, 2, []byte{1})
	if n := len(r.server.inbound); n != 1 {
		t.Fatalf("once the window passed the server holds %d half-received calls, want only the newest", n)
	}
}

// TestUnknownMethodReassemblesNothing: a server reassembles calls only to
// methods it has. A first chunk naming any other method is held nowhere,
// whatever total it claims; the chunk that ends the body is answered at
// once, so a caller whose arguments span several chunks still hears
// ErrNoMethod.
func TestUnknownMethodReassemblesNothing(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	r.server.Register("m", func([]byte) ([]byte, error) { return nil, nil })
	ev := envelope{kind: kindRequest, callID: 7, method: "nope", total: memproto.MaxTransferLen, data: make([]byte, 64)}
	r.server.HandleFrame(&wire.Header{Type: wire.MsgRPC, Src: 1, Dst: 2, Seq: 1}, ev.marshal())
	if n := len(r.server.inbound); n != 0 {
		t.Fatalf("a chunk claiming %d bytes for an unknown method left %d calls held", ev.total, n)
	}

	var gotErr error
	r.client.Call(2, "nope", make([]byte, 2*chunkData+1), func(_ []byte, err error) { gotErr = err })
	for r.sim.Step() {
		if n := len(r.server.inbound); n != 0 {
			t.Fatalf("the server holds %d calls while the chunks of a call to an unknown method arrive", n)
		}
	}
	if !errors.Is(gotErr, ErrNoMethod) || r.server.Counters().NoMethod != 1 {
		t.Fatalf("err = %v, NoMethod = %d; want ErrNoMethod once", gotErr, r.server.Counters().NoMethod)
	}
}

// TestClientAssemblyFromTheWire: the same fields arrive in response
// chunks; a duplicated one must not complete a call with a hole in its
// result, and a refused one fails the call instead of the process.
func TestClientAssemblyFromTheWire(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	var results [][]byte
	var errs []error
	r.client.Call(2, "m", nil, func(res []byte, err error) { results, errs = append(results, res), append(errs, err) })
	r.client.Call(2, "m", nil, func(res []byte, err error) { results, errs = append(results, res), append(errs, err) })
	respond := func(id, off, total uint64, data []byte) {
		ev := envelope{kind: kindResponse, callID: id, fragOff: off, total: total, data: data}
		r.client.HandleFrame(&wire.Header{Type: wire.MsgRPC, Src: 2, Dst: 1}, ev.marshal())
	}
	respond(1, 0, 4, []byte{1, 2})
	respond(1, 0, 4, []byte{1, 2})
	if len(results) != 0 {
		t.Fatalf("call completed with %v after one chunk twice", results[0])
	}
	respond(1, 2, 4, []byte{3, 4})
	respond(2, ^uint64(0), 4, []byte{1, 2})
	if len(results) != 2 || !bytes.Equal(results[0], []byte{1, 2, 3, 4}) || errs[0] != nil || errs[1] == nil {
		t.Fatalf("results %v errs %v, want [1 2 3 4] and then a refusal", results, errs)
	}
}

// FuzzEnvelopeAssembly sends a server two chunks of one call with
// whatever offsets and total 64 bits can say, then a raw payload, and
// holds it to a byte-per-byte model: it never panics, never holds a
// buffer larger than the cap, and runs the handler only once every byte
// of the body has arrived, with exactly those bytes.
func FuzzEnvelopeAssembly(f *testing.F) {
	f.Add(uint64(4), uint64(0), []byte{1, 2}, uint64(2), []byte{3, 4}, []byte{})
	f.Add(uint64(4), uint64(0), []byte{1, 2}, uint64(0), []byte{1, 2}, []byte{})
	f.Add(uint64(1)<<62, uint64(0), []byte{1}, uint64(1), []byte{2}, []byte{})
	f.Add(uint64(4), ^uint64(0), []byte{1, 2}, uint64(0), []byte{}, []byte{})
	f.Add(uint64(memproto.MaxTransferLen)+1, uint64(0), []byte{}, uint64(0), []byte{}, []byte{})
	f.Add(uint64(0), uint64(0), []byte{}, uint64(0), []byte{},
		(&envelope{kind: kindRequest, callID: 7, method: "m", total: 3, data: []byte("abc")}).marshal())

	f.Fuzz(func(t *testing.T, total, off1 uint64, data1 []byte, off2 uint64, data2, raw []byte) {
		var probe envelope
		probe.unmarshal(raw)
		for _, legal := range []uint64{total, probe.total} {
			if legal > 1<<20 && legal <= memproto.MaxTransferLen {
				t.Skip("a legal total: allowed to allocate, too large to fuzz with")
			}
		}
		r := newRig(t, netsim.LinkConfig{})
		var args []byte
		served := false
		r.server.Register("m", func(a []byte) ([]byte, error) {
			args, served = a, true
			return nil, nil
		})
		var model []byte
		var covered []bool
		alive := true // the call has not been refused or served
		for i, c := range []chunk{{off1, total, data1}, {off2, total, data2}} {
			ev := envelope{kind: kindRequest, callID: 7, method: "m", fragOff: c.off, total: total, data: c.data}
			var back envelope
			if err := back.unmarshal(ev.marshal()); err != nil || back.fragOff != c.off || back.total != total || !bytes.Equal(back.data, c.data) {
				t.Fatalf("envelope round trip: %+v -> %+v (%v)", ev, back, err)
			}
			r.server.HandleFrame(&wire.Header{Type: wire.MsgRPC, Src: 1, Dst: 2, Seq: uint64(i + 1)}, ev.marshal())
			for _, c := range r.server.inbound {
				if len(c.re.Bytes()) > memproto.MaxTransferLen {
					t.Fatalf("holding a %d-byte buffer", len(c.re.Bytes()))
				}
			}
			if !alive || served {
				continue // a chunk after the call ended starts another; the model follows one
			}
			end := c.off + uint64(len(c.data))
			if end < c.off || end > total || total > memproto.MaxTransferLen {
				alive = false
				if len(r.server.inbound) != 0 {
					t.Fatalf("a refused chunk [%d,+%d) of %d left the call held", c.off, len(c.data), total)
				}
				continue
			}
			if model == nil {
				model, covered = make([]byte, total), make([]bool, total)
			}
			copy(model[c.off:], c.data)
			missing := 0
			for j := range covered {
				covered[j] = covered[j] || uint64(j) >= c.off && uint64(j) < end
				if !covered[j] {
					missing++
				}
			}
			if served != (missing == 0) || served && !bytes.Equal(args, model) {
				t.Fatalf("served=%v args=%v with %d of %d bytes missing, model %v", served, args, missing, total, model)
			}
		}
		r.server.HandleFrame(&wire.Header{Type: wire.MsgRPC, Src: 1, Dst: 2, Seq: 3}, raw)
		r.client.HandleFrame(&wire.Header{Type: wire.MsgRPC, Src: 2, Dst: 1, Seq: 3}, raw)
	})
}
