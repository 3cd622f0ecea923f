package pubsub

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// pubsubFabric: one switch, three hosts (publisher, subscriber A,
// subscriber B), with a compiled filter table installed.
type pubsubFabric struct {
	sim   *netsim.Sim
	sw    *p4sim.Switch
	hosts []*netsim.Host
	got   [][]wire.Header
}

func newPubsubFabric(t *testing.T) *pubsubFabric {
	t.Helper()
	sim := netsim.NewSim(61)
	net := netsim.NewNetwork(sim)
	sw, err := p4sim.NewSwitch(net, "sw", 3, p4sim.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := &pubsubFabric{sim: sim, sw: sw, got: make([][]wire.Header, 3)}
	for i := 0; i < 3; i++ {
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

func (f *pubsubFabric) publish(t *testing.T, h wire.Header) {
	t.Helper()
	fr, err := wire.Encode(&h, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.hosts[0].Send(fr)
}

// TestTopicRoutingEndToEnd: a subscriber registers interest in an
// object-ID prefix (a "topic"); the compiled filter steers published
// frames to it through the switch data plane, Packet Subscriptions
// style.
func TestTopicRoutingEndToEnd(t *testing.T) {
	f := newPubsubFabric(t)
	topicA := gen.New()
	prefA := Prefix(wire.FieldObject, wire.ValueOfID(topicA), 32)

	e := NewEngine()
	// Subscriber on port 1 wants topic A; everything else that is a
	// MsgMem "publication" is dropped by a low-priority rule.
	if _, err := e.Subscribe(And(EqType(wire.MsgMem), prefA),
		p4sim.Action{Type: p4sim.ActForward, Port: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Subscribe(EqType(wire.MsgMem),
		p4sim.Action{Type: p4sim.ActDrop}); err != nil {
		t.Fatal(err)
	}
	tb, err := NewFilterTable("subs", p4sim.TableConfig{MemoryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompileTo(tb); err != nil {
		t.Fatal(err)
	}
	f.sw.SetFilterTable(tb)

	// Publish three frames on topic A (same /32 prefix) and two off
	// topic.
	inTopic := topicA
	for i := 0; i < 3; i++ {
		inTopic.Lo = uint64(i)
		f.publish(t, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 99, Object: inTopic, Seq: uint64(i + 1)})
	}
	off := gen.New()
	off.Hi ^= 0xFFFF_FFFF_0000_0000 // definitely different /32
	f.publish(t, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 99, Object: off, Seq: 10})
	f.publish(t, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 99, Object: off, Seq: 11})
	f.sim.Run()

	if len(f.got[1]) != 3 {
		t.Fatalf("subscriber received %d frames, want 3", len(f.got[1]))
	}
	if len(f.got[2]) != 0 {
		t.Fatalf("bystander received %d frames", len(f.got[2]))
	}
	if f.sw.Counters().FilterHits != 5 {
		t.Fatalf("FilterHits = %d", f.sw.Counters().FilterHits)
	}
	// Non-publication traffic is untouched by the filter: a hello
	// broadcast still floods.
	f.publish(t, wire.Header{Type: wire.MsgHello, Src: 1, Dst: wire.StationBroadcast, Seq: 99})
	f.sim.Run()
	if len(f.got[1]) != 4 || len(f.got[2]) != 1 {
		t.Fatalf("broadcast after filters: %d, %d", len(f.got[1]), len(f.got[2]))
	}
}

// TestSubscriptionUpdateRecompiles: withdrawing a subscription and
// recompiling changes the data plane.
func TestSubscriptionUpdateRecompiles(t *testing.T) {
	f := newPubsubFabric(t)
	e := NewEngine()
	if _, err := e.Subscribe(EqType(wire.MsgMem), p4sim.Action{Type: p4sim.ActForward, Port: 2}); err != nil {
		t.Fatal(err)
	}
	tb, _ := NewFilterTable("subs", p4sim.TableConfig{MemoryBytes: -1})
	if err := e.CompileTo(tb); err != nil {
		t.Fatal(err)
	}
	f.sw.SetFilterTable(tb)

	f.publish(t, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 99, Seq: 1})
	f.sim.Run()
	if len(f.got[2]) != 1 {
		t.Fatalf("pre-withdraw delivery: %d", len(f.got[2]))
	}

	// The subscription is withdrawn: an engine without it compiles to
	// the same table.
	if err := NewEngine().CompileTo(tb); err != nil {
		t.Fatal(err)
	}
	f.publish(t, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 99, Seq: 2})
	f.sim.Run()
	// With no filter hit and unknown unicast, the frame floods — but
	// it must not be a *filtered* delivery.
	if f.sw.Counters().FilterHits != 1 {
		t.Fatalf("FilterHits = %d after withdraw", f.sw.Counters().FilterHits)
	}
}
