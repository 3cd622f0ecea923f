package discovery

import (
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

func fwd(port int) p4sim.Action { return p4sim.Action{Type: p4sim.ActForward, Port: port} }

// shardPartition builds the 2^bits equal-length shard prefixes with
// actions chosen by pick.
func shardPartition(bits int, pick func(shard int) p4sim.Action) []ShardRoute {
	routes := make([]ShardRoute, 1<<bits)
	for s := range routes {
		var id oid.ID
		if bits > 0 {
			id.Hi = uint64(s) << (64 - uint(bits))
		}
		routes[s] = ShardRoute{Prefix: oid.MakePrefix(id, bits), Action: pick(s)}
	}
	return routes
}

func TestAggregateRoutesCollapsesUniform(t *testing.T) {
	routes := shardPartition(6, func(int) p4sim.Action { return fwd(1) })
	agg := AggregateRoutes(routes)
	if len(agg) != 1 || agg[0].Prefix.Bits != 0 {
		t.Fatalf("uniform 64-shard partition aggregated to %d routes (want 1 catch-all), got %v", len(agg), agg)
	}
}

func TestAggregateRoutesHalves(t *testing.T) {
	// Top half of the space to port 1, bottom half to port 2: 64
	// shards must aggregate to exactly two /1 rules.
	routes := shardPartition(6, func(s int) p4sim.Action {
		if s < 32 {
			return fwd(1)
		}
		return fwd(2)
	})
	agg := AggregateRoutes(routes)
	if len(agg) != 2 {
		t.Fatalf("two-port partition aggregated to %d routes, want 2: %v", len(agg), agg)
	}
	for _, r := range agg {
		if r.Prefix.Bits != 1 {
			t.Fatalf("aggregated route %v is not a /1", r.Prefix)
		}
	}
}

func TestAggregateRoutesPreservesSemantics(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	routes := shardPartition(8, func(int) p4sim.Action { return fwd(rnd.Intn(3)) })
	agg := AggregateRoutes(routes)
	if len(agg) >= len(routes) {
		t.Fatalf("aggregation did not shrink: %d -> %d", len(routes), len(agg))
	}
	for i := 0; i < 5000; i++ {
		id := oid.ID{Hi: rnd.Uint64(), Lo: rnd.Uint64()}
		want, wok := MatchShardRoutes(routes, id)
		got, gok := MatchShardRoutes(agg, id)
		if wok != gok || want != got {
			t.Fatalf("id %v: original %v/%v, aggregated %v/%v", id, want, wok, got, gok)
		}
	}
}

func TestCompileShardRoutesFlagGate(t *testing.T) {
	table, err := NewFilterTable("t", p4sim.TableConfig{MemoryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	routes := shardPartition(2, func(s int) p4sim.Action { return fwd(s) })
	if err := CompileShardRoutes(table, routes); err != nil {
		t.Fatal(err)
	}
	id := oid.ID{Hi: 3 << 62} // shard 3
	h := &wire.Header{Flags: wire.FlagRouteOnObject, Object: id}
	act, ok := table.Lookup(h)
	if !ok || act.Port != 3 {
		t.Fatalf("flagged lookup = %v/%v, want forward port 3", act, ok)
	}
	// A response frame carries the same object ID but no
	// route-on-object flag: shard rules must not steer it.
	h2 := &wire.Header{Flags: wire.FlagResponse, Object: id, Dst: 7}
	if act, ok := table.Lookup(h2); ok {
		t.Fatalf("unflagged frame matched a shard rule: %v", act)
	}
}

// flipBit returns id with bit i flipped, counting from the most
// significant bit of Hi.
func flipBit(id oid.ID, i int) oid.ID {
	if i < 64 {
		id.Hi ^= 1 << (63 - uint(i))
	} else {
		id.Lo ^= 1 << (127 - uint(i))
	}
	return id
}

// TestShardRouteMaskWidths pins the object mask shardEntry takes from
// oid.MakePrefix against MatchShardRoutes at the widths where a prefix
// crosses a word: the last bit inside the prefix decides a match, and
// the first bit outside it does not.
func TestShardRouteMaskWidths(t *testing.T) {
	base := oid.ID{Hi: 0xA5A5_5A5A_F0F0_0F0F, Lo: 0x3C3C_C3C3_9696_6969}
	for _, bits := range []int{0, 1, 63, 64, 65, 127, 128} {
		route := []ShardRoute{{Prefix: oid.MakePrefix(base, bits), Action: fwd(1)}}
		table, err := NewFilterTable("t", p4sim.TableConfig{MemoryBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := CompileShardRoutes(table, route); err != nil {
			t.Fatal(err)
		}
		probes := []oid.ID{base}
		if bits > 0 {
			probes = append(probes, flipBit(base, bits-1))
		}
		if bits < 128 {
			probes = append(probes, flipBit(base, bits))
		}
		for _, id := range probes {
			want, wok := MatchShardRoutes(route, id)
			got, ok := table.Lookup(&wire.Header{Flags: wire.FlagRouteOnObject, Object: id})
			if ok != wok || got != want {
				t.Fatalf("/%d, id %v: table %v/%v, reference %v/%v", bits, id, got, ok, want, wok)
			}
		}
		if _, ok := MatchShardRoutes(route, base); !ok {
			t.Fatalf("/%d: base %v misses its own prefix", bits, base)
		}
		if bits > 0 {
			if _, ok := MatchShardRoutes(route, flipBit(base, bits-1)); ok {
				t.Fatalf("/%d: the prefix's last bit does not decide the match", bits)
			}
		}
	}
}

// TestShardRoutesThroughSwitch drives a compiled shard route through a
// switch's data plane: an object-routed frame inside the prefix is
// steered by the filter table, and everything else — a frame off the
// prefix, a unicast frame without the route-on-object flag, a
// broadcast — takes the switch's normal forwarding.
func TestShardRoutesThroughSwitch(t *testing.T) {
	sim := netsim.NewSim(61)
	net := netsim.NewNetwork(sim)
	sw, err := p4sim.NewSwitch(net, "sw", 3, p4sim.SwitchConfig{LearnStations: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, 3)
	var hosts []*netsim.Host
	for i := range got {
		h, err := netsim.NewHost(net, "h"+string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		h.OnFrame = func(netsim.Frame) { got[i]++ }
		if err := net.Connect(h, 0, sw, i, netsim.LinkConfig{Latency: netsim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	send := func(from int, h wire.Header) {
		t.Helper()
		fr, err := wire.Encode(&h, nil)
		if err != nil {
			t.Fatal(err)
		}
		hosts[from].Send(fr)
		sim.Run()
	}
	expect := func(what string, want ...int) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: hosts received %v, want %v", what, got, want)
			}
		}
	}

	topic := gen.New()
	table, err := NewFilterTable("shard", p4sim.TableConfig{MemoryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompileShardRoutes(table, []ShardRoute{{Prefix: oid.MakePrefix(topic, 32), Action: fwd(1)}}); err != nil {
		t.Fatal(err)
	}
	sw.SetFilterTable(table)

	// A broadcast still floods, and teaches the switch station 2's port.
	send(2, wire.Header{Type: wire.MsgHello, Src: 2, Dst: wire.StationBroadcast, Seq: 1})
	expect("broadcast", 1, 1, 0)

	inPrefix := topic
	for i := range 3 {
		inPrefix.Lo = uint64(i)
		send(0, wire.Header{Type: wire.MsgMem, Flags: wire.FlagRouteOnObject, Src: 1, Dst: wire.StationAny, Object: inPrefix, Seq: uint64(i + 1)})
	}
	expect("in-prefix object-routed frames", 1, 4, 0)
	if hits := sw.Counters().FilterHits; hits != 3 {
		t.Fatalf("FilterHits = %d, want 3", hits)
	}

	off := topic
	off.Hi ^= 0xFFFF_FFFF_0000_0000
	send(0, wire.Header{Type: wire.MsgMem, Flags: wire.FlagRouteOnObject, Src: 1, Dst: 2, Object: off, Seq: 10})
	expect("off-prefix object-routed frame", 1, 4, 1)
	send(0, wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2, Object: topic, Seq: 11})
	expect("unflagged in-prefix frame", 1, 4, 2)
	if c := sw.Counters(); c.FilterHits != 3 || c.StationHits != 2 {
		t.Fatalf("FilterHits = %d, StationHits = %d after the fall-throughs, want 3 and 2", c.FilterHits, c.StationHits)
	}
}

// buildTriePartition derives a non-overlapping prefix partition from a
// byte stream: each byte decides split (descend both children) or
// leaf (emit a route with an action derived from the byte). This is
// the fuzz generator — any byte string yields valid, non-overlapping
// input.
func buildTriePartition(data []byte, maxDepth int) []ShardRoute {
	var routes []ShardRoute
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return b
	}
	var walk func(p oid.Prefix)
	walk = func(p oid.Prefix) {
		b := next()
		if p.Bits < maxDepth && b&1 == 1 {
			// Split into the two children.
			l := oid.MakePrefix(p.ID, p.Bits+1)
			rid := p.ID
			if p.Bits < 64 {
				rid.Hi |= 1 << (63 - uint(p.Bits))
			} else {
				rid.Lo |= 1 << (127 - uint(p.Bits))
			}
			r := oid.MakePrefix(rid, p.Bits+1)
			walk(l)
			walk(r)
			return
		}
		routes = append(routes, ShardRoute{Prefix: p, Action: fwd(int(b>>1) % 5)})
	}
	walk(oid.Prefix{})
	return routes
}

// FuzzCompileShardRoutes checks the central aggregation safety
// property: after AggregateRoutes + CompileShardRoutes, no rule may
// shadow a more-specific live entry — every object ID must get
// exactly the action the original (unaggregated) route set gives it,
// and unflagged frames must never match.
func FuzzCompileShardRoutes(f *testing.F) {
	f.Add([]byte{1, 1, 0, 2, 1, 4, 6})
	f.Add([]byte{255, 255, 255, 0})
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 5, 7, 9, 11, 13, 15, 2, 4, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		routes := buildTriePartition(data, 10)
		agg := AggregateRoutes(routes)
		if len(agg) > len(routes) {
			t.Fatalf("aggregation grew the rule set: %d -> %d", len(routes), len(agg))
		}
		table, err := NewFilterTable("fuzz", p4sim.TableConfig{MemoryBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := CompileShardRoutes(table, agg); err != nil {
			t.Fatal(err)
		}
		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rnd := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			id := oid.ID{Hi: rnd.Uint64(), Lo: rnd.Uint64()}
			want, wok := MatchShardRoutes(routes, id)
			act, ok := table.Lookup(&wire.Header{Flags: wire.FlagRouteOnObject, Object: id})
			if ok != wok || (ok && act != want) {
				t.Fatalf("id %v: table %v/%v, reference %v/%v (aggregated rule shadowed a more-specific entry)",
					id, act, ok, want, wok)
			}
			if _, ok := table.Lookup(&wire.Header{Object: id, Dst: 3}); ok {
				t.Fatalf("unflagged frame matched shard rule for %v", id)
			}
		}
	})
}
