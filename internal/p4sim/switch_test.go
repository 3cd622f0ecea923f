package p4sim

import (
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
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
	return newFabricPorts(t, cfg, nHosts, nHosts)
}

// newFabricPorts is newFabric with ports beyond the hosts' left
// unconnected.
func newFabricPorts(t *testing.T, cfg SwitchConfig, nHosts, nPorts int) *fabric {
	t.Helper()
	sim := netsim.NewSim(3)
	net := netsim.NewNetwork(sim)
	sw, err := NewSwitch(net, "sw0", nPorts, cfg)
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

// TestParseDrop: a frame that does not parse is dropped — a raw one, and
// a pooled one GetBuf handed out, though the same buffer carried an
// encoded header before: GetBuf clears it, so what is written into the
// buffer is parsed and its bad checksum caught.
func TestParseDrop(t *testing.T) {
	f := newFabric(t, SwitchConfig{}, 2)
	f.hosts[0].Send(netsim.Frame("garbage frame, not GASP"))
	f.sim.Run()
	if f.sw.Counters().ParseDrops != 1 {
		t.Fatalf("ParseDrops = %d", f.sw.Counters().ParseDrops)
	}

	h := wire.Header{Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1}
	bad := frame(t, h)
	bad[12] ^= 0xFF // the checksum
	var buf *dataplane.Buf
	for range 100 { // the pool mostly hands back the buffer just put in it
		enc, err := dataplane.EncodeFrame(&h, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc.Release()
		if buf = dataplane.GetBuf(len(bad)); buf == enc {
			break
		}
		buf.Release()
		buf = nil
	}
	if buf == nil {
		t.Skip("the pool never handed back a buffer that had carried a header")
	}
	copy(buf.Bytes(), bad)
	f.hosts[0].SendBuf(buf.Bytes(), buf)
	f.sim.Run()
	if c := f.sw.Counters(); c.ParseDrops != 2 || c.Flooded != 0 {
		t.Fatalf("a GetBuf frame with a bad checksum: ParseDrops = %d, Flooded = %d; want 2 and 0", c.ParseDrops, c.Flooded)
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
	f := newFabric(t, SwitchConfig{}, 2)
	var at netsim.Time
	f.hosts[1].OnFrame = func(fr netsim.Frame) { at = f.sim.Now() }
	f.hosts[0].Send(frame(t, wire.Header{Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1}))
	f.sim.Run()
	// 1µs link + 1µs pipeline + 1µs link.
	if at != netsim.Time(3*netsim.Microsecond) {
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
	f := newFabric(t, SwitchConfig{LearnStations: true}, 2)
	f.sw.stationTable.capacity = 3
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

// countingBuf is a FrameBuffer that only counts its references.
type countingBuf struct {
	t    *testing.T
	refs int
}

func (b *countingBuf) Retain() { b.refs++ }

func (b *countingBuf) Release() {
	if b.refs--; b.refs < 0 {
		b.t.Fatal("buffer released more often than retained")
	}
}

// forwarded counts the one-frame runs that ended in a plain forward:
// frames sent that no flood or punt accounts for.
func forwarded(c Counters) uint64 {
	if c.Flooded+c.ToController != 0 {
		return 0
	}
	return c.FramesOut
}

// TestSwitchOutcomesBalance sends one pooled frame down each path of
// the pipeline. It must land in exactly one outcome, and every
// reference to its buffer must be gone once the fabric drains: the
// switch takes the network's reference and passes it on or releases it.
func TestSwitchOutcomesBalance(t *testing.T) {
	id := gen.New()
	obj := wire.Header{Type: wire.MsgMem, Flags: wire.FlagRouteOnObject, Src: 1, Dst: wire.StationAny, Object: id, Seq: 1}
	bcast := wire.Header{Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 1}
	for _, c := range []struct {
		name    string
		cfg     SwitchConfig
		hosts   int
		ports   int // 0: one per host
		setup   func(sw *Switch)
		h       wire.Header
		garbage bool
		outcome func(Counters) uint64
	}{
		{name: "parse error", hosts: 3, garbage: true, outcome: func(c Counters) uint64 { return c.ParseDrops }},
		{name: "duplicate broadcast", hosts: 3, h: bcast, setup: func(sw *Switch) { sw.dupBroadcast(&bcast) },
			outcome: func(c Counters) uint64 { return c.Dropped }},
		{name: "miss drop", hosts: 3, h: obj, outcome: func(c Counters) uint64 { return c.Dropped }},
		{name: "forward to ingress", hosts: 3, h: obj,
			setup:   func(sw *Switch) { sw.InstallObjectRoute(wire.ValueOfID(id), 0) },
			outcome: func(c Counters) uint64 { return c.Dropped }},
		{name: "forward", hosts: 3, h: obj,
			setup:   func(sw *Switch) { sw.InstallObjectRoute(wire.ValueOfID(id), 2) },
			outcome: forwarded},
		{name: "flood", hosts: 3, h: bcast, outcome: func(c Counters) uint64 { return c.Flooded }},
		{name: "punt", cfg: SwitchConfig{ObjectMiss: MissPunt}, hosts: 3, h: obj,
			outcome: func(c Counters) uint64 { return c.ToController }},
		{name: "unconnected punt", cfg: SwitchConfig{ObjectMiss: MissPunt}, hosts: 2, ports: 3, h: obj,
			outcome: func(c Counters) uint64 { return c.Unsent }},
		{name: "punt to the ingress port", cfg: SwitchConfig{ObjectMiss: MissPunt, PuntUplink: true}, hosts: 3, h: obj,
			outcome: func(c Counters) uint64 { return c.Unsent }},
		{name: "flood with no other port", hosts: 1, h: bcast, outcome: func(c Counters) uint64 { return c.Unsent }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFabricPorts(t, c.cfg, c.hosts, max(c.hosts, c.ports))
			if c.setup != nil {
				c.setup(f.sw)
			}
			fr := netsim.Frame("garbage frame, not GASP")
			if !c.garbage {
				fr = frame(t, c.h)
			}
			buf := &countingBuf{t: t, refs: 1}
			f.hosts[0].SendBuf(fr, buf)
			f.sim.Run()
			n := f.sw.Counters()
			sum := n.ParseDrops + n.Dropped + n.Unsent + forwarded(n) + n.Flooded + n.ToController
			if n.FramesIn != 1 || sum != 1 || c.outcome(n) != 1 {
				t.Fatalf("one frame in, %d outcomes, %d of them the expected one: %+v", sum, c.outcome(n), n)
			}
			if buf.refs != 0 {
				t.Fatalf("%d references to the frame's buffer left after the drain", buf.refs)
			}
		})
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

func TestTablesConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  TablesConfig
		want string // substring of the error; "" = valid
	}{
		{"zero", TablesConfig{}, ""},
		{"every field", TablesConfig{ObjectMemory: -1, FilterMemory: 1024, Eviction: EvictLRU, ObjectMiss: MissPunt}, ""},
		{"unknown eviction", TablesConfig{Eviction: EvictLRU + 1}, "Eviction"},
		{"unknown miss policy", TablesConfig{ObjectMiss: MissPunt + 1}, "ObjectMiss"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
