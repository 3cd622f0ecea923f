package p4sim

import (
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// TestSwitchSurvivesRandomFrames feeds thousands of random frames —
// garbage, truncated headers, valid headers with random fields —
// through a switch with learning and real routes installed. The switch
// must neither panic nor wedge, and its counters must account for every
// frame.
func TestSwitchSurvivesRandomFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	f := newFabric(t, SwitchConfig{LearnStations: true, Station: 700}, 3)
	// A few real routes so random frames can hit them.
	f.sw.InstallObjectRoute(wire.ValueOfID(gen.New()), 1)
	f.sw.InstallStationRoute(2, 1)

	const n = 3000
	for i := 0; i < n; i++ {
		var fr netsim.Frame
		switch rng.Intn(3) {
		case 0: // pure garbage
			fr = make(netsim.Frame, rng.Intn(150))
			rng.Read(fr)
		case 1: // valid header, random fields, random payload
			h := wire.Header{
				Type:   wire.MsgType(rng.Intn(12)),
				Flags:  wire.Flags(rng.Uint32()),
				Src:    wire.StationID(rng.Intn(6)),
				Dst:    wire.StationID(rng.Intn(6)),
				Object: gen.New(),
				Seq:    rng.Uint64(),
			}
			if rng.Intn(4) == 0 {
				h.Dst = wire.StationBroadcast
			}
			payload := make([]byte, rng.Intn(64))
			rng.Read(payload)
			fr, _ = wire.Encode(&h, payload)
		default: // valid header then corrupted byte
			h := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Seq: uint64(i)}
			fr, _ = wire.Encode(&h, []byte{1, 2, 3})
			fr[rng.Intn(len(fr))] ^= 0xFF
		}
		f.hosts[rng.Intn(3)].Send(fr)
		if i%100 == 0 {
			f.sim.Run() // drain periodically so queues stay bounded
		}
	}
	f.sim.Run()
	c := f.sw.Counters()
	if c.FramesIn != n {
		t.Fatalf("FramesIn = %d, want %d", c.FramesIn, n)
	}
	if c.ParseDrops == 0 {
		t.Fatal("no parse drops on garbage input")
	}
	// The switch still forwards correctly afterward.
	f.sw.ResetCounters()
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1 << 60,
	}))
	f.sim.Run()
	if f.sw.Counters().Flooded != 1 {
		t.Fatal("switch wedged after fuzz")
	}
}

// recordingInc is a stub IncProgram: it counts the frames the hook
// shows it and consumes per the verdict function.
type recordingInc struct {
	seen    int
	consume func(h *wire.Header) bool
}

func (r *recordingInc) HandleFrame(_ int, h *wire.Header, _ netsim.Frame) bool {
	r.seen++
	return r.consume(h)
}

// incFuzzFrames replays one seeded random frame mix — including the
// INC message types — into a fabric.
func incFuzzFrames(f *fabric, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	types := []wire.MsgType{
		wire.MsgMem, wire.MsgIncInv, wire.MsgIncAck, wire.MsgHello, wire.MsgCtrl,
	}
	for i := 0; i < n; i++ {
		var fr netsim.Frame
		if rng.Intn(4) == 0 {
			fr = make(netsim.Frame, rng.Intn(120))
			rng.Read(fr)
		} else {
			h := wire.Header{
				Type:   types[rng.Intn(len(types))],
				Flags:  wire.Flags(rng.Uint32()),
				Src:    wire.StationID(rng.Intn(6)),
				Dst:    wire.StationID(rng.Intn(6)),
				Object: gen.New(),
				Seq:    rng.Uint64(),
			}
			payload := make([]byte, rng.Intn(40))
			rng.Read(payload)
			fr, _ = wire.Encode(&h, payload)
		}
		f.hosts[rng.Intn(len(f.hosts))].Send(fr)
		if i%100 == 0 {
			f.sim.Run()
		}
	}
	f.sim.Run()
}

// TestIncHookPipelineInvariants pins the IncProgram attachment
// contract under random INC-typed traffic: the hook sees exactly the
// frames that parse, a declining program leaves the pipeline's
// behavior bit-identical to no program at all, and a consuming
// program suppresses all forwarding without wedging the switch.
func TestIncHookPipelineInvariants(t *testing.T) {
	const n = 2000
	run := func(consume func(h *wire.Header) bool) (*fabric, *recordingInc, Counters) {
		f := newFabric(t, SwitchConfig{LearnStations: true, Station: 700}, 3)
		f.sw.InstallStationRoute(2, 1)
		var r *recordingInc
		if consume != nil {
			r = &recordingInc{consume: consume}
			f.sw.AddIncProgram(r)
		}
		incFuzzFrames(f, 42, n)
		return f, r, f.sw.Counters()
	}

	_, _, base := run(nil)
	_, decline, transparent := run(func(*wire.Header) bool { return false })
	if transparent != base {
		t.Fatalf("declining program changed the pipeline:\n  with    %+v\n  without %+v",
			transparent, base)
	}
	if want := int(base.FramesIn - base.ParseDrops); decline.seen != want {
		t.Fatalf("hook saw %d frames, want every parsed frame (%d)", decline.seen, want)
	}

	f, all, consumed := run(func(*wire.Header) bool { return true })
	if all.seen != decline.seen {
		t.Fatalf("consume-all saw %d frames, decline saw %d", all.seen, decline.seen)
	}
	if consumed.FramesOut != 0 || consumed.Flooded != 0 {
		t.Fatalf("consumed frames still forwarded: %+v", consumed)
	}
	// The switch still forwards once the program declines again.
	all.consume = func(*wire.Header) bool { return false }
	f.sw.ResetCounters()
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1 << 59,
	}))
	f.sim.Run()
	if f.sw.Counters().Flooded != 1 {
		t.Fatal("switch wedged after consume-all fuzz")
	}
}

// TestIncProgramsComposeInOrder pins the program list: a frame goes to
// the programs in attachment order, the first claim ends its pass, and
// only what every program declined reaches the tables.
func TestIncProgramsComposeInOrder(t *testing.T) {
	f := newFabric(t, SwitchConfig{LearnStations: true, Station: 700}, 3)
	mem := &recordingInc{consume: func(h *wire.Header) bool { return h.Type == wire.MsgMem }}
	ctrl := &recordingInc{consume: func(h *wire.Header) bool { return h.Type == wire.MsgCtrl }}
	f.sw.AddIncProgram(mem)
	f.sw.AddIncProgram(ctrl)
	for i, typ := range []wire.MsgType{wire.MsgMem, wire.MsgCtrl, wire.MsgHello} {
		f.hosts[0].Send(frame(t, wire.Header{Type: typ, Src: 1, Dst: wire.StationBroadcast, Seq: uint64(i + 1)}))
	}
	f.sim.Run()
	if mem.seen != 3 || ctrl.seen != 2 {
		t.Fatalf("first program saw %d frames, second %d; want 3 and the 2 the first declined", mem.seen, ctrl.seen)
	}
	if c := f.sw.Counters(); c.IncClaimed != 2 || c.Flooded != 1 {
		t.Fatalf("IncClaimed %d, Flooded %d; want the two claims and the declined frame flooded", c.IncClaimed, c.Flooded)
	}
}
