package p4sim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/wire"
)

// fabric is a star of one switch with three hosts for switch tests.
type fabric struct {
	sim   *netsim.Sim
	net   *netsim.Network
	sw    *Switch
	hosts []*netsim.Host
	got   [][]wire.Header
}

func newFabric(t *testing.T, cfg SwitchConfig, nHosts int) *fabric {
	t.Helper()
	sim := netsim.NewSim(3)
	net := netsim.NewNetwork(sim)
	sw, err := NewSwitch(net, "sw0", nHosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fabric{sim: sim, net: net, sw: sw, got: make([][]wire.Header, nHosts)}
	for i := 0; i < nHosts; i++ {
		h, err := netsim.NewHost(net, "h"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		i := i
		h.OnFrame = func(fr netsim.Frame) {
			var hd wire.Header
			if err := hd.DecodeFrom(fr); err == nil {
				f.got[i] = append(f.got[i], hd)
			}
		}
		if err := net.Connect(h, 0, sw, i, netsim.LinkConfig{Latency: netsim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		f.hosts = append(f.hosts, h)
	}
	return f
}

func frame(t *testing.T, h wire.Header) netsim.Frame {
	t.Helper()
	fr, err := wire.Encode(&h, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestBroadcastFloods(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 3)
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgDiscover, Src: 1, Dst: wire.StationBroadcast, Seq: 1,
	}))
	f.sim.Run()
	if len(f.got[0]) != 0 {
		t.Fatal("broadcast echoed to sender")
	}
	if len(f.got[1]) != 1 || len(f.got[2]) != 1 {
		t.Fatalf("broadcast delivery: %d, %d", len(f.got[1]), len(f.got[2]))
	}
	if f.sw.Counters().Flooded != 1 {
		t.Fatalf("Flooded = %d", f.sw.Counters().Flooded)
	}
}

func TestBroadcastDedupSuppressesDuplicates(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 3)
	h := wire.Header{Type: wire.MsgDiscover, Src: 1, Dst: wire.StationBroadcast, Seq: 9}
	f.hosts[0].Send(frame(t, h))
	f.hosts[0].Send(frame(t, h)) // identical (src,seq,type): loop replica
	f.sim.Run()
	if len(f.got[1]) != 1 {
		t.Fatalf("dedup failed: host1 saw %d copies", len(f.got[1]))
	}
	// Different seq passes.
	h.Seq = 10
	f.hosts[0].Send(frame(t, h))
	f.sim.Run()
	if len(f.got[1]) != 2 {
		t.Fatalf("new seq suppressed: %d", len(f.got[1]))
	}
}

func TestStationLearningUnicast(t *testing.T) {
	f := newFabric(t, SwitchConfig{LearnStations: true}, 3)
	// Host 1 (station 2) speaks first so the switch learns it.
	f.hosts[1].Send(frame(t, wire.Header{
		Type: wire.MsgHello, Src: 2, Dst: wire.StationBroadcast, Seq: 1,
	}))
	f.sim.Run()
	if f.sw.Counters().LearnedHosts != 1 {
		t.Fatalf("LearnedHosts = %d", f.sw.Counters().LearnedHosts)
	}
	// Now host 0 unicasts to station 2: must go only to host 1.
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgMem, Src: 1, Dst: 2, Seq: 2,
	}))
	f.sim.Run()
	if len(f.got[1]) != 1 { // hello flood did not reach its own sender
		t.Fatalf("host1 frames = %d", len(f.got[1]))
	}
	if got := f.got[2]; len(got) != 1 || got[0].Type != wire.MsgHello {
		t.Fatalf("host2 should only have seen the hello flood, got %d", len(got))
	}
	if f.sw.Counters().StationHits != 1 {
		t.Fatalf("StationHits = %d", f.sw.Counters().StationHits)
	}
}

func TestUnknownUnicastFloods(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 3)
	f.hosts[0].Send(frame(t, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 42, Seq: 1}))
	f.sim.Run()
	if len(f.got[1]) != 1 || len(f.got[2]) != 1 {
		t.Fatalf("unknown unicast flood: %d, %d", len(f.got[1]), len(f.got[2]))
	}
}

func TestObjectRouting(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 3)
	id := gen.New()
	if err := f.sw.InstallObjectRoute(wire.ValueOfID(id), 2); err != nil {
		t.Fatal(err)
	}
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgMem, Flags: wire.FlagRouteOnObject,
		Src: 1, Dst: 99, Object: id, Seq: 1,
	}))
	f.sim.Run()
	if len(f.got[2]) != 1 {
		t.Fatalf("object route delivery: %d", len(f.got[2]))
	}
	if len(f.got[1]) != 0 {
		t.Fatal("object-routed frame flooded")
	}
	if f.sw.Counters().ObjectHits != 1 {
		t.Fatalf("ObjectHits = %d", f.sw.Counters().ObjectHits)
	}
	// Removal falls back to (unknown-unicast) flooding.
	if !f.sw.ObjectTable().Delete([]KeyValue{{Value: wire.ValueOfID(id)}}) {
		t.Fatal("the object rule was not in the table")
	}
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgMem, Flags: wire.FlagRouteOnObject,
		Src: 1, Dst: 99, Object: id, Seq: 2,
	}))
	f.sim.Run()
	if len(f.got[1]) != 1 {
		t.Fatal("after removal, frame should flood")
	}
}

func TestObjectMissHook(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 2)
	var missed []oid.ID
	f.sw.OnMiss = func(h *wire.Header) { missed = append(missed, h.Object) }
	id := gen.New()
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgMem, Flags: wire.FlagRouteOnObject, Src: 1, Dst: 5, Object: id, Seq: 1,
	}))
	f.sim.Run()
	if len(missed) != 1 || missed[0] != id {
		t.Fatalf("OnMiss = %v", missed)
	}
}

func TestParseDrop(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 2)
	f.hosts[0].Send(netsim.Frame("garbage frame, not GASP"))
	f.sim.Run()
	if f.sw.Counters().ParseDrops != 1 {
		t.Fatalf("ParseDrops = %d", f.sw.Counters().ParseDrops)
	}
}

func TestForwardToIngressDropped(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 2)
	id := gen.New()
	f.sw.InstallObjectRoute(wire.ValueOfID(id), 0) // back at the sender
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgMem, Flags: wire.FlagRouteOnObject, Src: 1, Dst: 9, Object: id, Seq: 1,
	}))
	f.sim.Run()
	if len(f.got[0]) != 0 {
		t.Fatal("frame hairpinned to ingress")
	}
	if f.sw.Counters().Dropped != 1 {
		t.Fatalf("Dropped = %d", f.sw.Counters().Dropped)
	}
}

func TestPipelineDelayApplied(t *testing.T) {
	f := newFabric(t, SwitchConfig{PipelineDelay: 10 * netsim.Microsecond}, 2)
	var at netsim.Time
	f.hosts[1].OnFrame = func(fr netsim.Frame) { at = f.sim.Now() }
	f.hosts[0].Send(frame(t, wire.Header{Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1}))
	f.sim.Run()
	// 1µs link + 10µs pipeline + 1µs link.
	if at != netsim.Time(12*netsim.Microsecond) {
		t.Fatalf("arrival at %v", netsim.Duration(at))
	}
}

func TestInstallStationRoute(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 3)
	if err := f.sw.InstallStationRoute(7, 2); err != nil {
		t.Fatal(err)
	}
	f.hosts[0].Send(frame(t, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 7, Seq: 1}))
	f.sim.Run()
	if len(f.got[2]) != 1 || len(f.got[1]) != 0 {
		t.Fatalf("station route: h2=%d h1=%d", len(f.got[2]), len(f.got[1]))
	}
}

func TestLearnFailureWhenStationTableFull(t *testing.T) {
	// Budget for 3 station entries.
	f := newFabric(t, SwitchConfig{LearnStations: true, StationTableMemory: 64}, 2)
	for i := 1; i <= 5; i++ {
		f.hosts[0].Send(frame(t, wire.Header{
			Type: wire.MsgHello, Src: wire.StationID(100 + i), Dst: wire.StationBroadcast, Seq: uint64(i),
		}))
	}
	f.sim.Run()
	c := f.sw.Counters()
	if c.LearnedHosts != 3 || c.LearnFailures != 2 {
		t.Fatalf("learned=%d failures=%d", c.LearnedHosts, c.LearnFailures)
	}
}

func TestObjectLPMRouting(t *testing.T) {
	f := newFabric(t, SwitchConfig{ObjectLPM: true}, 3)
	prefix := oid.ID{Hi: 0x0002_0000_0000_0000}
	if err := f.sw.InstallObjectPrefix(wire.ValueOfID(prefix), 16, 2); err != nil {
		t.Fatal(err)
	}
	// Any object under the /16 routes to port 2 with one rule.
	for _, id := range []oid.ID{
		{Hi: 0x0002_1234_5678_9ABC, Lo: 42},
		{Hi: 0x0002_FFFF_0000_0000, Lo: 7},
	} {
		f.hosts[0].Send(frame(t, wire.Header{
			Type: wire.MsgMem, Flags: wire.FlagRouteOnObject,
			Src: 1, Dst: wire.StationAny, Object: id, Seq: id.Lo,
		}))
	}
	f.sim.Run()
	if len(f.got[2]) != 2 {
		t.Fatalf("LPM delivery: %d frames", len(f.got[2]))
	}
	// Outside the prefix: dropped (route-on-object miss, StationAny).
	f.hosts[0].Send(frame(t, wire.Header{
		Type: wire.MsgMem, Flags: wire.FlagRouteOnObject,
		Src: 1, Dst: wire.StationAny, Object: oid.ID{Hi: 0x0003_0000_0000_0000, Lo: 1}, Seq: 99,
	}))
	f.sim.Run()
	if len(f.got[2]) != 2 || len(f.got[1]) != 0 {
		t.Fatal("out-of-prefix frame was forwarded")
	}
	if f.sw.Counters().ObjectMisses != 1 {
		t.Fatalf("ObjectMisses = %d", f.sw.Counters().ObjectMisses)
	}
}

func TestCountersAndString(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 2)
	f.hosts[0].Send(frame(t, wire.Header{Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1}))
	f.sim.Run()
	if f.sw.Counters().FramesIn != 1 {
		t.Fatalf("FramesIn = %d", f.sw.Counters().FramesIn)
	}
	f.sw.ResetCounters()
	if f.sw.Counters() != (Counters{}) {
		t.Fatal("ResetCounters")
	}
	if f.sw.String() == "" {
		t.Fatal("String empty")
	}
	if f.sw.ObjectTable() == nil || f.sw.StationTable() == nil {
		t.Fatal("table accessors")
	}
}
