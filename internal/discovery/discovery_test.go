package discovery

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

var gen = oid.NewSeededGenerator(17)

// node bundles a host, endpoint, and object ownership set for tests.
type node struct {
	host *netsim.Host
	ep   *transport.Endpoint
	owns map[oid.ID]bool
}

func (n *node) has(id oid.ID) bool { return n.owns[id] }

// starFabric builds one switch with hosts on ports 0..n-1.
func starFabric(t *testing.T, n int, swCfg p4sim.SwitchConfig) (*netsim.Sim, *netsim.Network, *p4sim.Switch, []*node) {
	t.Helper()
	sim := netsim.NewSim(5)
	net := netsim.NewNetwork(sim)
	sw, err := p4sim.NewSwitch(net, "sw", n, swCfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*node, n)
	for i := 0; i < n; i++ {
		h, err := netsim.NewHost(net, "h"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(h, 0, sw, i, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{
			host: h,
			ep:   transport.NewEndpoint(h, wire.StationID(i+1), transport.Config{}),
			owns: make(map[oid.ID]bool),
		}
	}
	return sim, net, sw, nodes
}

func TestE2EResolveBroadcast(t *testing.T) {
	sim, _, _, nodes := starFabric(t, 3, p4sim.SwitchConfig{LearnStations: true})
	a, b := nodes[0], nodes[1]
	resA := NewE2E(a.ep, a.has, Config{})
	resB := NewE2E(b.ep, b.has, Config{})
	a.ep.SetHandler(func(h *wire.Header, p []byte) { resA.HandleFrame(h, p) })
	b.ep.SetHandler(func(h *wire.Header, p []byte) { resB.HandleFrame(h, p) })
	nodes[2].ep.SetHandler(func(h *wire.Header, p []byte) {
		NewE2E(nodes[2].ep, nodes[2].has, Config{}).HandleFrame(h, p)
	})

	obj := gen.New()
	b.owns[obj] = true

	var got Result
	var gotErr error
	resA.Resolve(obj, func(r Result, err error) { got, gotErr = r, err })
	sim.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got.Station != b.ep.Station() {
		t.Fatalf("resolved to %v", got.Station)
	}
	if got.Broadcasts != 1 || got.CacheHit {
		t.Fatalf("result = %+v", got)
	}

	// Second resolve: cache hit, no network.
	var got2 Result
	resA.Resolve(obj, func(r Result, err error) { got2 = r })
	sim.Run()
	if !got2.CacheHit || got2.Station != b.ep.Station() {
		t.Fatalf("second resolve = %+v", got2)
	}
	c := resA.Counters()
	if c.Resolves != 2 || c.CacheHits != 1 || c.CacheMisses != 1 || c.Broadcasts != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if resA.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d", resA.CacheLen())
	}
}

func TestE2EResolveNotFound(t *testing.T) {
	sim, _, _, nodes := starFabric(t, 2, p4sim.SwitchConfig{LearnStations: true})
	a := nodes[0]
	resA := NewE2E(a.ep, a.has, Config{Timeout: 200 * netsim.Microsecond})
	var gotErr error
	resA.Resolve(gen.New(), func(r Result, err error) { gotErr = err })
	sim.Run()
	if !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("err = %v", gotErr)
	}
	if resA.Counters().Failures != 1 {
		t.Fatalf("Failures = %d", resA.Counters().Failures)
	}
}

func TestE2EInvalidateForcesRebroadcast(t *testing.T) {
	sim, _, _, nodes := starFabric(t, 3, p4sim.SwitchConfig{LearnStations: true})
	a, b, c := nodes[0], nodes[1], nodes[2]
	resA := NewE2E(a.ep, a.has, Config{})
	resB := NewE2E(b.ep, b.has, Config{})
	resC := NewE2E(c.ep, c.has, Config{})
	b.ep.SetHandler(func(h *wire.Header, p []byte) { resB.HandleFrame(h, p) })
	c.ep.SetHandler(func(h *wire.Header, p []byte) { resC.HandleFrame(h, p) })

	obj := gen.New()
	b.owns[obj] = true
	resA.Resolve(obj, func(Result, error) {})
	sim.Run()

	// Object moves from b to c; a's cache is now stale.
	delete(b.owns, obj)
	c.owns[obj] = true
	resA.Invalidate(obj)
	if resA.Counters().Invalidations != 1 {
		t.Fatal("invalidation not counted")
	}
	var got Result
	resA.Resolve(obj, func(r Result, err error) { got = r })
	sim.Run()
	if got.Station != c.ep.Station() || got.Broadcasts != 1 {
		t.Fatalf("after move: %+v", got)
	}
}

func TestE2EAnnounceLocal(t *testing.T) {
	sim, _, _, nodes := starFabric(t, 2, p4sim.SwitchConfig{})
	a := nodes[0]
	res := NewE2E(a.ep, a.has, Config{})
	obj := gen.New()
	a.owns[obj] = true
	res.Announce(obj)
	var got Result
	res.Resolve(obj, func(r Result, err error) { got = r })
	sim.Run()
	if !got.CacheHit || got.Station != a.ep.Station() {
		t.Fatalf("local resolve = %+v", got)
	}
	res.Withdraw(obj)
	if res.CacheLen() != 0 {
		t.Fatal("Withdraw left cache entry")
	}
}

// controllerFabric: 4 interconnected switches in a star (sw0 core),
// hosts on sw1..sw3, controller host on sw0 — the §4 topology shape.
func controllerFabric(t *testing.T) (*netsim.Sim, *netsim.Network, []*p4sim.Switch, []*node, *Controller, *node) {
	t.Helper()
	sim := netsim.NewSim(9)
	net := netsim.NewNetwork(sim)
	link := netsim.LinkConfig{Latency: 5 * netsim.Microsecond}

	sws := make([]*p4sim.Switch, 4)
	var err error
	// sw0 core: ports 0..2 to leaf switches, port 3 to controller.
	if sws[0], err = p4sim.NewSwitch(net, "sw0", 4, p4sim.SwitchConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		// Leaf: port 0 uplink, port 1 host.
		if sws[i], err = p4sim.NewSwitch(net, "sw"+string(rune('0'+i)), 2, p4sim.SwitchConfig{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(sws[0], i-1, sws[i], 0, link); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*node, 3)
	for i := 0; i < 3; i++ {
		h, err := netsim.NewHost(net, "h"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(h, 0, sws[i+1], 1, link); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &node{host: h, ep: transport.NewEndpoint(h, wire.StationID(i+1), transport.Config{}), owns: map[oid.ID]bool{}}
	}
	ch, err := netsim.NewHost(net, "ctrl")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(ch, 0, sws[0], 3, link); err != nil {
		t.Fatal(err)
	}
	ctrlNode := &node{host: ch, ep: transport.NewEndpoint(ch, 100, transport.Config{}), owns: map[oid.ID]bool{}}
	ctrl := NewController(ctrlNode.ep, nil, 0)
	for _, sw := range sws {
		ctrl.AddSwitch(sw)
	}
	stations := map[wire.StationID]netsim.Device{
		1: nodes[0].host, 2: nodes[1].host, 3: nodes[2].host, 100: ctrlNode.host,
	}
	if err := ctrl.ComputeRoutes(net, stations); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ProgramStationTables(); err != nil {
		t.Fatal(err)
	}
	ctrlNode.ep.SetHandler(func(h *wire.Header, p []byte) { ctrl.HandleFrame(h, p) })
	return sim, net, sws, nodes, ctrl, ctrlNode
}

func TestComputeRoutesStationUnicast(t *testing.T) {
	sim, net, _, nodes, _, _ := controllerFabric(t)
	// With station tables programmed, a unicast from h0 to station 3
	// must not flood: exactly 5 link deliveries (h0→sw1→sw0→sw3→h2 is
	// 4 hops... count frames delivered to node 1's host = 0).
	got := 0
	nodes[2].ep.SetHandler(func(h *wire.Header, p []byte) { got++ })
	other := 0
	nodes[1].ep.SetHandler(func(h *wire.Header, p []byte) { other++ })
	nodes[0].ep.Send(wire.Header{Type: wire.MsgMem, Dst: 3}, []byte("hi"))
	sim.Run()
	if got != 1 || other != 0 {
		t.Fatalf("unicast: target=%d bystander=%d", got, other)
	}
	_ = net
}

func TestControllerAnnounceInstallsRoutes(t *testing.T) {
	sim, _, sws, nodes, ctrl, _ := controllerFabric(t)
	b := nodes[1]
	cc := NewControllerClient(b.ep, []wire.StationID{100})
	obj := gen.New()
	b.owns[obj] = true
	cc.Announce(obj)
	sim.Run()
	if !cc.Announced(obj) {
		t.Fatal("announce not acked")
	}
	if ctrl.Announces() != 1 {
		t.Fatalf("Announces = %d", ctrl.Announces())
	}
	if ctrl.RulesInstalled() != uint64(len(sws)) {
		t.Fatalf("RulesInstalled = %d", ctrl.RulesInstalled())
	}
	if ctrl.Objects() != 1 {
		t.Fatalf("Objects = %d", ctrl.Objects())
	}
	// Route-on-object frame from h0 reaches h1 (owner) without
	// flooding.
	delivered := 0
	b.ep.SetHandler(func(h *wire.Header, p []byte) { delivered++ })
	bystander := 0
	nodes[2].ep.SetHandler(func(h *wire.Header, p []byte) { bystander++ })
	nodes[0].ep.Send(wire.Header{
		Type: wire.MsgMem, Dst: 2, Flags: wire.FlagRouteOnObject, Object: obj,
	}, nil)
	sim.Run()
	if delivered != 1 || bystander != 0 {
		t.Fatalf("object-routed: owner=%d bystander=%d", delivered, bystander)
	}
}

func TestControllerClientResolveImmediate(t *testing.T) {
	_, _, _, nodes, _, _ := controllerFabric(t)
	cc := NewControllerClient(nodes[0].ep, []wire.StationID{100})
	var got Result
	called := false
	cc.Resolve(gen.New(), func(r Result, err error) { got, called = r, true })
	if !called || !got.RouteOnObject || !got.CacheHit {
		t.Fatalf("resolve = %+v called=%v", got, called)
	}
	cc.Invalidate(gen.New()) // no-ops must not panic
	cc.Withdraw(gen.New())
	if cc.Counters().Resolves != 1 {
		t.Fatalf("counters = %+v", cc.Counters())
	}
}

func TestControllerReannounceAfterMoveRedirects(t *testing.T) {
	sim, _, _, nodes, _, _ := controllerFabric(t)
	b, c := nodes[1], nodes[2]
	ccB := NewControllerClient(b.ep, []wire.StationID{100})
	ccC := NewControllerClient(c.ep, []wire.StationID{100})
	obj := gen.New()
	ccB.Announce(obj)
	sim.Run()
	// Move: c re-announces; routes now point to c.
	ccC.Announce(obj)
	sim.Run()
	gotB, gotC := 0, 0
	b.ep.SetHandler(func(*wire.Header, []byte) { gotB++ })
	c.ep.SetHandler(func(*wire.Header, []byte) { gotC++ })
	nodes[0].ep.Send(wire.Header{Type: wire.MsgMem, Dst: 3, Flags: wire.FlagRouteOnObject, Object: obj}, nil)
	sim.Run()
	if gotB != 0 || gotC != 1 {
		t.Fatalf("after move: b=%d c=%d", gotB, gotC)
	}
}

func TestControllerInstallFailureWhenTableFull(t *testing.T) {
	// A switch with a tiny object table: second announce fails.
	sim := netsim.NewSim(5)
	net := netsim.NewNetwork(sim)
	sw, err := p4sim.NewSwitch(net, "sw", 2, p4sim.SwitchConfig{
		ObjectTableMemory: 32, // one 32-byte (two-word) entry at 0.87 fill = 0 entries... use 64
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.ObjectTable().Capacity() >= 2 {
		t.Skip("capacity model changed; adjust test budget")
	}
	h0, _ := netsim.NewHost(net, "h0")
	net.Connect(h0, 0, sw, 0, netsim.LinkConfig{Latency: netsim.Microsecond})
	hostEp := transport.NewEndpoint(h0, 1, transport.Config{})
	ch, _ := netsim.NewHost(net, "ctrl")
	net.Connect(ch, 0, sw, 1, netsim.LinkConfig{Latency: netsim.Microsecond})
	ctrlEp := transport.NewEndpoint(ch, 100, transport.Config{})
	ctrl := NewController(ctrlEp, nil, 0)
	ctrl.AddSwitch(sw)
	if err := ctrl.ComputeRoutes(net, map[wire.StationID]netsim.Device{1: h0, 100: ch}); err != nil {
		t.Fatal(err)
	}
	ctrlEp.SetHandler(func(h *wire.Header, p []byte) { ctrl.HandleFrame(h, p) })
	cc := NewControllerClient(hostEp, []wire.StationID{100})
	for i := 0; i < 3; i++ {
		cc.Announce(gen.New())
	}
	sim.Run()
	if ctrl.InstallFailures() == 0 {
		t.Fatal("expected install failures with full table")
	}
}

// TestClientFollowsLeaderRedirect is the regression test for the
// hardcoded-controller-station bug: a client whose first membership
// entry is a follower must follow the not-leader reply's hint to the
// leader — for announces and for locates — rather than retrying the
// same station forever.
func TestClientFollowsLeaderRedirect(t *testing.T) {
	sim, _, _, nodes := starFabric(t, 4, p4sim.SwitchConfig{LearnStations: true})
	follower, leaderNode := nodes[2], nodes[3] // stations 3 and 4

	// Station 4 is a real (degenerate, always-leading) controller;
	// station 3 plays a deposed follower that knows the leader.
	ctrl := NewController(leaderNode.ep, nil, 0)
	leaderNode.ep.SetHandler(func(h *wire.Header, p []byte) { ctrl.HandleFrame(h, p) })
	follower.ep.SetHandler(func(h *wire.Header, p []byte) {
		if h.Type != wire.MsgAnnounce && h.Type != wire.MsgLocate {
			return
		}
		ack := wire.MsgAnnounceAck
		if h.Type == wire.MsgLocate {
			ack = wire.MsgLocateReply
		}
		reply := make([]byte, 1+wire.StationIDSize)
		reply[0] = notLeaderStatus
		binary.BigEndian.PutUint16(reply[1:], uint16(leaderNode.ep.Station()))
		follower.ep.Respond(h, wire.Header{Type: ack, Object: h.Object}, reply)
	})

	// The announcing client starts at the follower.
	a := nodes[0]
	ccA := NewControllerClient(a.ep, []wire.StationID{3, 4})
	obj := gen.New()
	a.owns[obj] = true
	var announceErr error
	ccA.AnnounceCB(obj, func(err error) { announceErr = err })
	sim.Run()
	if announceErr != nil {
		t.Fatalf("announce through redirect: %v", announceErr)
	}
	if !ccA.Announced(obj) {
		t.Fatal("announce not acked after redirect")
	}
	if ccA.Redirects() == 0 {
		t.Fatal("client claims it never followed a redirect")
	}
	if ctrl.Objects() != 1 {
		t.Fatalf("leader recorded %d objects", ctrl.Objects())
	}

	// A second client locates through the same redirect.
	b := nodes[1]
	ccB := NewControllerClient(b.ep, []wire.StationID{3, 4})
	ccB.Invalidate(obj) // stale mark forces a MsgLocate
	var got Result
	var locErr error
	ccB.Resolve(obj, func(r Result, err error) { got, locErr = r, err })
	sim.Run()
	if locErr != nil {
		t.Fatalf("locate through redirect: %v", locErr)
	}
	if !got.RouteOnObject {
		t.Fatalf("locate result = %+v (want route-on-object)", got)
	}
	if ccB.Redirects() == 0 {
		t.Fatal("locate never followed a redirect")
	}
}

// TestClientRotatesWhenLeaderUnknown: a follower that does not know a
// leader (hint 0) forces membership rotation instead of a wedge.
func TestClientRotatesWhenLeaderUnknown(t *testing.T) {
	sim, _, _, nodes := starFabric(t, 4, p4sim.SwitchConfig{LearnStations: true})
	clueless, leaderNode := nodes[2], nodes[3]

	ctrl := NewController(leaderNode.ep, nil, 0)
	leaderNode.ep.SetHandler(func(h *wire.Header, p []byte) { ctrl.HandleFrame(h, p) })
	clueless.ep.SetHandler(func(h *wire.Header, p []byte) {
		if h.Type != wire.MsgAnnounce {
			return
		}
		// Not leader, and no idea who is: an all-zero hint.
		reply := make([]byte, 1+wire.StationIDSize)
		reply[0] = notLeaderStatus
		clueless.ep.Respond(h, wire.Header{Type: wire.MsgAnnounceAck, Object: h.Object}, reply)
	})

	a := nodes[0]
	cc := NewControllerClient(a.ep, []wire.StationID{3, 4})
	obj := gen.New()
	a.owns[obj] = true
	var announceErr error
	cc.AnnounceCB(obj, func(err error) { announceErr = err })
	sim.Run()
	if announceErr != nil {
		t.Fatalf("announce after rotation: %v", announceErr)
	}
	if !cc.Announced(obj) {
		t.Fatal("announce not acked after rotation")
	}
	if ctrl.Objects() != 1 {
		t.Fatalf("leader recorded %d objects", ctrl.Objects())
	}
}

// TestClientBacksOffWhenAllReplicasUnreachable pins the retry policy
// when the whole control-plane membership is dark (partition, rolling
// crash): the client must terminate after its retry budget, and its
// rotate loop must space attempts with exponential backoff instead of
// hammering the fabric the instant each timeout fires.
func TestClientBacksOffWhenAllReplicasUnreachable(t *testing.T) {
	sim := netsim.NewSim(11)
	net := netsim.NewNetwork(sim)
	sw, err := p4sim.NewSwitch(net, "sw0", 1, p4sim.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := netsim.NewHost(net, "h0")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(h, 0, sw, 0, netsim.LinkConfig{Latency: 5 * netsim.Microsecond}); err != nil {
		t.Fatal(err)
	}
	// Short request deadlines so the sweep is quick; retransmission is
	// pushed past the deadline so each attempt is one wire frame.
	ep := transport.NewEndpoint(h, 1, transport.Config{
		RequestTimeout:    200 * netsim.Microsecond,
		RetransmitTimeout: netsim.Millisecond,
	})
	// Three controller stations, none attached to the fabric.
	cc := NewControllerClient(ep, []wire.StationID{50, 51, 52})

	var announceErr error
	done := false
	start := sim.Now()
	cc.AnnounceCB(gen.New(), func(err error) { announceErr = err; done = true })
	sim.Run()
	elapsed := sim.Now().Sub(start)

	if !done {
		t.Fatal("announce never terminated")
	}
	if announceErr == nil {
		t.Fatal("announce succeeded against an unreachable membership")
	}
	// Budget: announceRetries+1 attempts (each at most a few transport
	// retransmissions) — no spin.
	attempts := uint64(cc.announceRetries + 1)
	if in := sw.Counters().FramesIn; in < attempts || in > 4*attempts {
		t.Fatalf("switch saw %d frames for %d attempts", in, attempts)
	}
	// Spacing: the backoff schedule alone (100, 200, 400, ... capped at
	// 2ms) spans well over 10ms across the budget; the pre-backoff
	// client finished in ~attempts*RequestTimeout = 2ms.
	var minSpan netsim.Duration
	for a := 0; a < cc.announceRetries; a++ {
		minSpan += cc.backoff(a)
	}
	if elapsed < minSpan {
		t.Fatalf("announce retries spun: %v elapsed, backoff alone spans %v", elapsed, minSpan)
	}

	// The locate path shares the policy: a stale object against the
	// same dark membership must also back off and terminate.
	obj := gen.New()
	cc.Invalidate(obj)
	var locateErr error
	done = false
	start = sim.Now()
	cc.Resolve(obj, func(_ Result, err error) { locateErr = err; done = true })
	sim.Run()
	elapsed = sim.Now().Sub(start)
	if !done {
		t.Fatal("locate never terminated")
	}
	if !errors.Is(locateErr, ErrNotFound) {
		t.Fatalf("locate error = %v, want ErrNotFound", locateErr)
	}
	minSpan = 0
	for a := 0; a < cc.locateRetries; a++ {
		minSpan += cc.backoff(a)
	}
	if elapsed < minSpan {
		t.Fatalf("locate retries spun: %v elapsed, backoff alone spans %v", elapsed, minSpan)
	}
}

// TestOneHandlerServesBothModes drives the single announce/locate
// handler as the degenerate 1-replica controller and as a 3-replica
// raft group: the leader answers announce, locate and unknown-object
// locate identically in both, and every follower redirects to it.
func TestOneHandlerServesBothModes(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		sim, _, _, nodes := starFabric(t, 1+replicas, p4sim.SwitchConfig{LearnStations: true})
		client := nodes[0]
		stations := make([]wire.StationID, replicas)
		for i := range stations {
			stations[i] = nodes[1+i].ep.Station()
		}
		ctrls := make([]*Controller, replicas)
		for i := range ctrls {
			ep := nodes[1+i].ep
			ctrls[i] = NewController(ep, stations, 3)
			ep.Mux().Handle(wire.MsgAnnounce, ctrls[i].HandleFrame)
			ep.Mux().Handle(wire.MsgLocate, ctrls[i].HandleFrame)
			if rn := ctrls[i].Raft(); rn != nil {
				ep.Mux().Handle(wire.MsgRaft, rn.HandleFrame)
			}
		}
		if (ctrls[0].Raft() != nil) != (replicas > 1) {
			t.Fatalf("%d replicas: raft node present = %v", replicas, ctrls[0].Raft() != nil)
		}
		sim.RunFor(10 * netsim.Millisecond) // elect (a no-op unreplicated)
		var leader *Controller
		for _, c := range ctrls {
			if c.IsLeader() {
				leader = c
			}
		}
		if leader == nil {
			t.Fatalf("%d replicas: no leader after 10ms", replicas)
		}
		leaderSt, _ := leader.Leader()

		// ask sends one request and returns the reply payload.
		ask := func(typ wire.MsgType, dst wire.StationID, obj oid.ID) []byte {
			t.Helper()
			var got []byte
			var reqErr error
			client.ep.Request(wire.Header{Type: typ, Dst: dst, Object: obj}, nil, 0,
				func(_ *wire.Header, payload []byte, err error) {
					got, reqErr = append([]byte(nil), payload...), err
				})
			sim.RunFor(5 * netsim.Millisecond)
			if reqErr != nil {
				t.Fatalf("%d replicas: %v to station %d: %v", replicas, typ, dst, reqErr)
			}
			return got
		}

		obj := gen.New()
		if p := ask(wire.MsgAnnounce, leaderSt, obj); len(p) != 1 || p[0] != 0 {
			t.Errorf("%d replicas: announce ack = %v, want [0]", replicas, p)
		}
		for i, c := range ctrls {
			if owner, ok := c.Lookup(obj); !ok || owner != client.ep.Station() {
				t.Errorf("%d replicas: replica %d applied owner %d (known=%v)", replicas, i, owner, ok)
			}
		}
		p := ask(wire.MsgLocate, leaderSt, obj)
		if len(p) != locateReplyLen || p[0] != 0 ||
			wire.StationID(binary.BigEndian.Uint16(p[1:])) != client.ep.Station() {
			t.Errorf("%d replicas: locate reply = %v, want status 0 and owner %d", replicas, p, client.ep.Station())
		}
		if p := ask(wire.MsgLocate, leaderSt, gen.New()); len(p) != 1 || p[0] != 1 {
			t.Errorf("%d replicas: unknown-object locate = %v, want [1]", replicas, p)
		}
		if leader.Announces() != 1 {
			t.Errorf("%d replicas: leader counted %d announces", replicas, leader.Announces())
		}

		for i, c := range ctrls {
			if c == leader {
				continue
			}
			for _, typ := range []wire.MsgType{wire.MsgAnnounce, wire.MsgLocate} {
				p := ask(typ, stations[i], obj)
				if len(p) != 1+wire.StationIDSize || p[0] != notLeaderStatus ||
					wire.StationID(binary.BigEndian.Uint16(p[1:])) != leaderSt {
					t.Errorf("%d replicas: follower %d answered %v with %v, want a redirect to %d",
						replicas, stations[i], typ, p, leaderSt)
				}
			}
			if c.Announces() != 0 {
				t.Errorf("%d replicas: follower %d counted an announce", replicas, stations[i])
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"zero", Config{}, ""},
		{"every field", Config{Timeout: netsim.Millisecond, Retries: 40, Replicas: 1, Shards: 3}, ""},
		{"negative timeout", Config{Timeout: -netsim.Microsecond}, "Timeout"},
		{"negative retries", Config{Retries: -3}, "Retries"},
		{"negative replicas", Config{Replicas: -1}, "Replicas"},
		{"negative shards", Config{Shards: -4}, "Shards"},
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

// TestDecodeCommandRefusesUnknownOps: a committed entry arrives from a
// peer in a MsgRaft frame, so decodeCommand takes only the two ops the
// state machine has. A command of the right length with op 0 or the
// retired op 3 (multicast-group installs) is refused, not applied as a
// no-op.
func TestDecodeCommandRefusesUnknownOps(t *testing.T) {
	obj := gen.New()
	for _, op := range []Op{OpAnnounce, OpForget} {
		want := Command{Op: op, Object: obj, Owner: 7}
		if got, err := decodeCommand(want.encode()); err != nil || got != want {
			t.Fatalf("op %d: decoded %+v, %v; want %+v", op, got, err, want)
		}
	}
	for _, op := range []Op{0, 3} {
		p := Command{Op: OpAnnounce, Object: obj, Owner: 7}.encode()
		p[0] = byte(op)
		if len(p) != cmdLen {
			t.Fatalf("encoded %d bytes, want cmdLen %d", len(p), cmdLen)
		}
		if cmd, err := decodeCommand(p); err == nil {
			t.Fatalf("op %d: decoded %+v; want it refused", op, cmd)
		}
	}
}
