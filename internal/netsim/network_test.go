package netsim

import (
	"math"
	"strings"
	"testing"
)

func twoHosts(t *testing.T, cfg LinkConfig) (*Sim, *Network, *Host, *Host) {
	t.Helper()
	sim := NewSim(1)
	net := NewNetwork(sim)
	a, err := NewHost(net, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHost(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(a, 0, b, 0, cfg); err != nil {
		t.Fatal(err)
	}
	return sim, net, a, b
}

func TestFrameDelivery(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{Latency: 10 * Microsecond})
	var got Frame
	var at Time
	b.OnFrame = func(fr Frame) { got = fr; at = sim.Now() }
	a.Send(Frame("hello"))
	sim.Run()
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if at != Time(10*Microsecond) {
		t.Fatalf("arrival at %d, want %d", at, 10*Microsecond)
	}
	st := net.Stats()
	if st.FramesDelivered != 1 || st.BytesDelivered != 5 || st.FramesSent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrameZeroCopyOnSend(t *testing.T) {
	// The network forwards frame bytes without copying: the caller
	// relinquishes the frame at Send, so the receiver sees the same
	// backing array (this is what makes pooled buffers worthwhile).
	sim, _, a, b := twoHosts(t, LinkConfig{})
	var got Frame
	b.OnFrame = func(fr Frame) { got = fr }
	buf := Frame("original")
	a.Send(buf)
	sim.Run()
	if string(got) != "original" {
		t.Fatalf("got %q", got)
	}
	if &got[0] != &buf[0] {
		t.Fatal("frame was copied; Send is documented zero-copy")
	}
}

type refBuf struct {
	refs     int
	released int
}

func (r *refBuf) Retain()  { r.refs++ }
func (r *refBuf) Release() { r.refs--; r.released++ }

func TestSendBufReleasesAfterDelivery(t *testing.T) {
	sim, _, a, b := twoHosts(t, LinkConfig{})
	delivered := false
	b.OnFrame = func(Frame) { delivered = true }
	rb := &refBuf{refs: 1}
	a.SendBuf(Frame("x"), rb)
	sim.Run()
	if !delivered {
		t.Fatal("frame not delivered")
	}
	if rb.refs != 0 || rb.released != 1 {
		t.Fatalf("refs = %d, released = %d; want 0, 1", rb.refs, rb.released)
	}
}

func TestSendBufReleasesOnDrop(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{})
	b.OnFrame = func(Frame) { t.Fatal("delivered over a down link") }
	net.SetLinkDown(a, 0, true)
	rb := &refBuf{refs: 1}
	a.SendBuf(Frame("x"), rb)
	sim.Run()
	if rb.refs != 0 || rb.released != 1 {
		t.Fatalf("refs = %d, released = %d; want 0, 1", rb.refs, rb.released)
	}
}

func TestTransmissionDelay(t *testing.T) {
	// 1000 bytes at 1 Gb/s = 8 µs of serialization + 2 µs latency.
	sim, _, a, b := twoHosts(t, LinkConfig{Latency: 2 * Microsecond, BitsPerSec: 1_000_000_000})
	var at Time
	b.OnFrame = func(Frame) { at = sim.Now() }
	a.Send(make(Frame, 1000))
	sim.Run()
	if at != Time(10*Microsecond) {
		t.Fatalf("arrival at %v, want 10µs", Duration(at))
	}
}

func TestQueueingSerializesFrames(t *testing.T) {
	// Two back-to-back 1000-byte frames: second waits for the first
	// transmitter slot. Arrivals at 10µs and 18µs.
	sim, _, a, b := twoHosts(t, LinkConfig{Latency: 2 * Microsecond, BitsPerSec: 1_000_000_000})
	var arrivals []Time
	b.OnFrame = func(Frame) { arrivals = append(arrivals, sim.Now()) }
	a.Send(make(Frame, 1000))
	a.Send(make(Frame, 1000))
	sim.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != Time(10*Microsecond) || arrivals[1] != Time(18*Microsecond) {
		t.Fatalf("arrivals = %v, want [10µs 18µs]", arrivals)
	}
}

func TestFullDuplexIndependentDirections(t *testing.T) {
	// Frames in opposite directions must not queue behind each other.
	sim, _, a, b := twoHosts(t, LinkConfig{Latency: 2 * Microsecond, BitsPerSec: 1_000_000_000})
	var atA, atB Time
	a.OnFrame = func(Frame) { atA = sim.Now() }
	b.OnFrame = func(Frame) { atB = sim.Now() }
	a.Send(make(Frame, 1000))
	b.Send(make(Frame, 1000))
	sim.Run()
	if atA != atB || atA != Time(10*Microsecond) {
		t.Fatalf("duplex arrivals: a=%v b=%v", Duration(atA), Duration(atB))
	}
}

func TestBidirectional(t *testing.T) {
	sim, _, a, b := twoHosts(t, LinkConfig{Latency: 5 * Microsecond})
	var rtt Time
	b.OnFrame = func(fr Frame) { b.Send(Frame("pong")) }
	a.OnFrame = func(fr Frame) { rtt = sim.Now() }
	a.Send(Frame("ping"))
	sim.Run()
	if rtt != Time(10*Microsecond) {
		t.Fatalf("rtt = %v", Duration(rtt))
	}
}

func TestDrop(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{DropRate: 1.0})
	delivered := false
	b.OnFrame = func(Frame) { delivered = true }
	a.Send(Frame("x"))
	sim.Run()
	if delivered {
		t.Fatal("frame delivered despite 100% drop")
	}
	if net.Stats().FramesDropped != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
}

func TestPartialLossRate(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{DropRate: 0.5})
	delivered := 0
	b.OnFrame = func(Frame) { delivered++ }
	const n = 2000
	for i := 0; i < n; i++ {
		a.Send(Frame("x"))
	}
	sim.Run()
	if delivered < n/3 || delivered > 2*n/3 {
		t.Fatalf("delivered %d/%d at 50%% loss", delivered, n)
	}
	st := net.Stats()
	if st.FramesDelivered+st.FramesDropped != n {
		t.Fatalf("delivered+dropped = %d", st.FramesDelivered+st.FramesDropped)
	}
}

func TestUnconnectedPortDiscards(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	a, _ := NewHost(net, "a")
	a.Send(Frame("into the void"))
	sim.Run()
	if net.Stats().FramesDropped != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
}

func TestConnectErrors(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	a, _ := NewHost(net, "a")
	b, _ := NewHost(net, "b")
	outsider := &Host{name: "x"}
	if err := net.Connect(outsider, 0, b, 0, LinkConfig{}); err == nil {
		t.Fatal("Connect accepted unregistered device")
	}
	if err := net.Connect(a, 5, b, 0, LinkConfig{}); err == nil {
		t.Fatal("Connect accepted bad port")
	}
	if err := net.Connect(a, 0, b, 0, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(a, 0, b, 0, LinkConfig{}); err == nil {
		t.Fatal("Connect accepted already-connected port")
	}
	if _, err := net.AddDevice(a, 1); err == nil {
		t.Fatal("AddDevice accepted duplicate")
	}
	if _, err := net.AddDevice(outsider, 0); err == nil {
		t.Fatal("AddDevice accepted zero ports")
	}
}

func TestConnectedAndNumPorts(t *testing.T) {
	_, net, a, b := twoHosts(t, LinkConfig{})
	if !net.Connected(a, 0) || !net.Connected(b, 0) {
		t.Fatal("Connected = false for wired port")
	}
	if net.Connected(a, 1) {
		t.Fatal("Connected = true for bad port")
	}
	if net.NumPorts(a) != 1 {
		t.Fatalf("NumPorts = %d", net.NumPorts(a))
	}
	if net.NumPorts(&Host{name: "z"}) != 0 {
		t.Fatal("NumPorts for unknown device != 0")
	}
}

func TestLinkFailureInjection(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{Latency: Microsecond})
	delivered := 0
	b.OnFrame = func(Frame) { delivered++ }
	if !net.SetLinkDown(a, 0, true) {
		t.Fatal("SetLinkDown returned false")
	}
	if !net.devices[a].ports[0].down || !net.devices[b].ports[0].down {
		t.Fatal("LinkDown state not visible from both ends")
	}
	a.Send(Frame("lost"))
	b.Send(Frame("also lost"))
	sim.Run()
	if delivered != 0 {
		t.Fatal("frames crossed a failed link")
	}
	if net.Stats().FramesDropped != 2 {
		t.Fatalf("drops = %d", net.Stats().FramesDropped)
	}
	// Restore and verify traffic flows again.
	net.SetLinkDown(a, 0, false)
	a.Send(Frame("back"))
	sim.Run()
	if delivered != 1 {
		t.Fatal("restored link did not deliver")
	}
	// Unknown ports report false.
	if net.SetLinkDown(a, 9, true) {
		t.Fatal("bogus port accepted")
	}
}

// TestTraceHook: the frame-span hook sees every link traversal once,
// at send time, with both ends named and the arrival it will have — a
// lost frame included, which no delivery would have reported.
func TestTraceHook(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{Latency: Microsecond})
	type hop struct {
		from, to      string
		bytes         int
		sent, arrival Time
		dropped       bool
	}
	var hops []hop
	net.SetFrameSpanHook(func(from, to string, fr Frame, sent, arrival Time, _, _ Duration, dropped bool) {
		hops = append(hops, hop{from, to, len(fr), sent, arrival, dropped})
	})
	var deliveredAt Time
	b.OnFrame = func(Frame) { deliveredAt = sim.Now() }
	a.Send(Frame("abc"))
	sim.Run()
	net.devices[a].ports[0].cfg.DropRate = 1 // the link, so both directions
	b.Send(Frame("lost!"))
	sim.Run()
	want := []hop{
		{"a", "b", 3, 0, Time(Microsecond), false},
		{"b", "a", 5, Time(Microsecond), Time(2 * Microsecond), true},
	}
	if len(hops) != len(want) || hops[0] != want[0] || hops[1] != want[1] {
		t.Fatalf("hops = %+v, want %+v", hops, want)
	}
	if deliveredAt != hops[0].arrival {
		t.Fatalf("delivered at %v, the hook said %v", deliveredAt, hops[0].arrival)
	}
}

func TestResetStats(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{})
	b.OnFrame = func(Frame) {}
	a.Send(Frame("x"))
	sim.Run()
	net.ResetStats()
	if net.Stats() != (Stats{}) {
		t.Fatalf("stats after reset = %+v", net.Stats())
	}
}

// relayDevice forwards every frame from port 0 to port 1 and vice
// versa, to exercise multi-port devices.
type relayDevice struct {
	name string
	net  *Network
}

func (r *relayDevice) DevName() string { return r.name }
func (r *relayDevice) Recv(port int, fr Frame) {
	r.net.Send(r, 1-port, fr)
}

func TestMultiHop(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	a, _ := NewHost(net, "a")
	b, _ := NewHost(net, "b")
	relay := &relayDevice{name: "r", net: net}
	net.AddDevice(relay, 2)
	cfg := LinkConfig{Latency: 3 * Microsecond}
	if err := net.Connect(a, 0, relay, 0, cfg); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(relay, 1, b, 0, cfg); err != nil {
		t.Fatal(err)
	}
	var at Time
	b.OnFrame = func(Frame) { at = sim.Now() }
	a.Send(Frame("via relay"))
	sim.Run()
	if at != Time(6*Microsecond) {
		t.Fatalf("two-hop arrival at %v", Duration(at))
	}
}

func BenchmarkFrameDelivery(b *testing.B) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	h1, _ := NewHost(net, "a")
	h2, _ := NewHost(net, "b")
	net.Connect(h1, 0, h2, 0, DefaultLink)
	h2.OnFrame = func(Frame) {}
	fr := make(Frame, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h1.Send(fr)
		sim.Run()
	}
}

func TestFrameControlDrop(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{})
	delivered := 0
	b.OnFrame = func(Frame) { delivered++ }
	count := 0
	net.SetFrameControlHook(func(from, to string, fr Frame) FrameControl {
		count++
		return FrameControl{Drop: count == 2} // drop only the second frame
	})
	rb := &refBuf{refs: 1}
	a.Send(Frame("one"))
	a.SendBuf(Frame("two"), rb)
	a.Send(Frame("three"))
	sim.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	if net.Stats().FramesDropped != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
	if rb.refs != 0 || rb.released != 1 {
		t.Fatalf("dropped frame's buffer: refs=%d released=%d", rb.refs, rb.released)
	}
}

func TestFrameControlDup(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{Latency: 10 * Microsecond})
	var arrivals []Time
	b.OnFrame = func(Frame) { arrivals = append(arrivals, sim.Now()) }
	net.SetFrameControlHook(func(from, to string, fr Frame) FrameControl {
		return FrameControl{Dup: true, DupDelay: 3 * Microsecond}
	})
	rb := &refBuf{refs: 1}
	a.SendBuf(Frame("x"), rb)
	sim.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v, want 2 deliveries", arrivals)
	}
	if arrivals[0] != Time(10*Microsecond) || arrivals[1] != Time(13*Microsecond) {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// One Retain for the duplicate, both deliveries release.
	if rb.refs != 0 {
		t.Fatalf("buffer refs = %d after dup delivery", rb.refs)
	}
	st := net.Stats()
	if st.FramesSent != 2 || st.FramesDelivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrameControlDelayReorders(t *testing.T) {
	sim, net, a, b := twoHosts(t, LinkConfig{Latency: 10 * Microsecond})
	var order []string
	b.OnFrame = func(fr Frame) { order = append(order, string(fr)) }
	net.SetFrameControlHook(func(from, to string, fr Frame) FrameControl {
		if string(fr) == "first" {
			return FrameControl{Delay: 5 * Microsecond}
		}
		return FrameControl{}
	})
	a.Send(Frame("first"))
	a.Send(Frame("second"))
	sim.Run()
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("order = %v, want [second first]", order)
	}
}

func TestFrameControlZeroValueNoPerturbation(t *testing.T) {
	// An installed hook returning the zero FrameControl must leave the
	// run bit-identical — including the seeded loss stream.
	run := func(hook bool) []Time {
		sim, net, a, b := twoHosts(t, LinkConfig{Latency: 3 * Microsecond, DropRate: 0.3})
		if hook {
			net.SetFrameControlHook(func(string, string, Frame) FrameControl {
				return FrameControl{}
			})
		}
		var arrivals []Time
		b.OnFrame = func(Frame) { arrivals = append(arrivals, sim.Now()) }
		for i := 0; i < 50; i++ {
			a.Send(make(Frame, 100))
		}
		sim.Run()
		return arrivals
	}
	base, hooked := run(false), run(true)
	if len(base) != len(hooked) {
		t.Fatalf("delivery count changed: %d vs %d", len(base), len(hooked))
	}
	for i := range base {
		if base[i] != hooked[i] {
			t.Fatalf("arrival %d changed: %v vs %v", i, base[i], hooked[i])
		}
	}
}

func TestFabricConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  FabricConfig
		want string // substring of the error; "" = valid
	}{
		{"zero", FabricConfig{}, ""},
		{"every field", FabricConfig{Leaves: 8, DropRate: 1, BatchDelivery: true, HostRxCost: Microsecond}, ""},
		{"negative leaves", FabricConfig{Leaves: -1}, "Leaves"},
		{"drop rate above one", FabricConfig{DropRate: 1.5}, "DropRate"},
		{"negative drop rate", FabricConfig{DropRate: -0.1}, "DropRate"},
		{"NaN drop rate", FabricConfig{DropRate: math.NaN()}, "DropRate"},
		{"negative rx cost", FabricConfig{HostRxCost: -Microsecond}, "HostRxCost"},
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
