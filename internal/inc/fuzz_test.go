package inc

import (
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// TestEngineSurvivesRandomFrames attaches a fully-enabled engine to a
// real switch and feeds it random traffic skewed toward the INC message
// types — garbage payloads, truncated INC encodings, random groups,
// claims, and bitmaps. The pipeline invariants: nothing panics, the
// switch keeps forwarding afterward, and the engine emits no frame that
// fails to parse.
func TestEngineSurvivesRandomFrames(t *testing.T) {
	sim := netsim.NewSim(3)
	net := netsim.NewNetwork(sim)
	sw, err := p4sim.NewSwitch(net, "sw0", 4, p4sim.SwitchConfig{
		LearnStations: true, Station: 2001,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New("sw0", sw, Config{Mcast: true, AckAgg: true})
	if err != nil {
		t.Fatal(err)
	}
	sw.AddIncProgram(eng)
	sw.InstallIncGroup(5, []wire.StationID{1, 2, 3})

	hosts := make([]*netsim.Host, 3)
	delivered := 0
	for i := range hosts {
		h, err := netsim.NewHost(net, "h"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		h.OnFrame = func(fr netsim.Frame) {
			var hd wire.Header
			if err := hd.DecodeFrom(fr); err != nil {
				t.Errorf("fabric delivered an unparseable frame: %v", err)
			}
			delivered++
		}
		if err := net.Connect(h, 0, sw, i, netsim.LinkConfig{Latency: netsim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}
	rng := rand.New(rand.NewSource(4242))
	types := []wire.MsgType{wire.MsgMem, wire.MsgIncInv, wire.MsgIncAck, wire.MsgCtrl}
	const n = 3000
	for i := 0; i < n; i++ {
		h := wire.Header{
			Type:   types[rng.Intn(len(types))],
			Flags:  wire.Flags(rng.Uint32()),
			Src:    wire.StationID(rng.Intn(5)),
			Dst:    wire.StationID(rng.Intn(5)),
			Object: gen.New(),
			Seq:    rng.Uint64(),
		}
		payload := make([]byte, rng.Intn(48)) // covers truncated INC encodings
		rng.Read(payload)
		if rng.Intn(3) == 0 {
			// A well-formed INC payload with random group/claim/bitmap,
			// so the replicate and aggregate paths actually run.
			payload = make([]byte, 24)
			rng.Read(payload)
			payload[16] = byte(rng.Intn(2))
			if rng.Intn(2) == 0 {
				payload[8], payload[9], payload[10], payload[11] = 0, 0, 0, 0
				payload[12], payload[13], payload[14] = 0, 0, 0
				payload[15] = byte(rng.Intn(7)) // group 0..6: no group, known, unknown
			}
		}
		fr, _ := wire.Encode(&h, payload)
		hosts[rng.Intn(len(hosts))].Send(fr)
		if i%100 == 0 {
			sim.Run()
		}
	}
	sim.Run()

	// The switch still serves a normal frame after the storm.
	sw.ResetCounters()
	probe := wire.Header{Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1 << 60}
	fr, _ := wire.Encode(&probe, nil)
	hosts[0].Send(fr)
	sim.Run()
	if sw.Counters().Flooded != 1 {
		t.Fatal("switch wedged after INC fuzz")
	}
}
