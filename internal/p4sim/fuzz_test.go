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
	f := newFabric(t, SwitchConfig{LearnStations: true}, 3)
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
				Seq:    uint64(rng.Uint32()),
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
		Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1 << 31,
	}))
	f.sim.Run()
	if f.sw.Counters().Flooded != 1 {
		t.Fatal("switch wedged after fuzz")
	}
}
