package core

import (
	"slices"
	"testing"

	"repro/internal/discovery"
	"repro/internal/object"
	"repro/internal/p4sim"
)

// adoptHomed allocates an object whose sharded home is node n and
// adopts it there (lite: no metadata registration).
func adoptHomed(t *testing.T, c *Cluster, n *Node, size int) *object.Object {
	t.Helper()
	id, ok := c.NewIDHomedAt(n.Station)
	if !ok {
		t.Fatalf("station %v owns no shards", n.Station)
	}
	o, err := object.New(id, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AdoptObjectLite(o); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestShardedTopology(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeSharded})
	if c.Sharder == nil {
		t.Fatal("no sharder")
	}
	if len(c.Controllers) != 0 {
		t.Fatal("sharded scheme must not build a controller")
	}
	if got := c.Sharder.Shards(); got != 64 {
		t.Fatalf("default shards = %d, want 64", got)
	}
	// Every switch carries aggregated shard rules in its filter table,
	// and aggregation must beat one-rule-per-shard.
	for _, sw := range c.Switches {
		ft := sw.FilterTable()
		if ft == nil {
			t.Fatalf("%s: no filter table", sw.DevName())
		}
		if ft.Len() == 0 || ft.Len() >= c.Sharder.Shards() {
			t.Fatalf("%s: %d shard rules for %d shards (want aggregated)",
				sw.DevName(), ft.Len(), c.Sharder.Shards())
		}
	}
}

// TestCreatedObjectsReachableSharded: CreateObject and CreateCodeObject
// home an object at the node that calls them, and under SchemeSharded
// the fabric routes on the ID's shard prefix, so the ID must come from
// one of that node's shards. A plain NewID would leave most such objects
// routed to another node, where every read of them fails.
func TestCreatedObjectsReachableSharded(t *testing.T) {
	c := newTestCluster(t, Config{NumNodes: 4, Seed: 5, Scheme: SchemeSharded})
	var ids []object.Global
	for i := 1; i <= 3; i++ {
		for j := 0; j < 4; j++ {
			o, err := c.Node(i).CreateObject(4096)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, object.Global{Obj: o.ID()})
		}
		code, err := c.Node(i).CreateCodeObject("sym.sharded")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, object.Global{Obj: code.ID()})
	}
	c.Run()
	failed := 0
	for _, g := range ids {
		c.Node(0).Coherence.ReadAt(g.Obj, g.Off, 8).Then(func(_ []byte, err error) {
			if err != nil {
				failed++
			}
		})
		c.Run()
	}
	if failed != 0 {
		t.Fatalf("%d of %d objects created on nodes 1-3 unreadable from node 0", failed, len(ids))
	}
}

func TestDerefRemoteSharded(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeSharded})
	owner, reader := c.Node(1), c.Node(0)
	o := adoptHomed(t, c, owner, 8192)
	off, _ := o.AllocString("sharded data")

	var got *object.Object
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.Run()
	if got == nil {
		t.Fatal("deref incomplete")
	}
	if s, _ := got.LoadString(off); s != "sharded data" {
		t.Fatalf("got %q", s)
	}
	// Resolution is local: no discovery broadcasts, no punts.
	if bc := c.Telemetry().Value("switch.flooded"); bc != 0 {
		t.Fatalf("sharded resolve flooded %d times", bc)
	}
	if c.ShardPunts() != 0 {
		t.Fatalf("unexpected punts: %d", c.ShardPunts())
	}
}

func TestShardedWritesInvalidate(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeSharded})
	owner, w := c.Node(2), c.Node(0)
	o := adoptHomed(t, c, owner, 4096)

	var werr error
	w.Coherence.AcquireExclusive(o.ID()).Then(func(_ *object.Object, err error) { werr = err })
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	if got := owner.Coherence.SharerSet(o.ID()); len(got) != 1 {
		t.Fatalf("sharers = %v, want 1", got)
	}
}

// TestShardedEvictionPuntRecovers squeezes the filter tables so only a
// handful of shard rules stay resident, with LRU eviction and punt
// fallback: an acquire whose shard rule was evicted must still
// complete via the shard manager, which also reinstalls the rule.
func TestShardedEvictionPuntRecovers(t *testing.T) {
	c := newTestCluster(t, Config{
		Scheme:    SchemeSharded,
		NumNodes:  4,
		Discovery: discovery.Config{Shards: 64},
		// Room for only a few ternary rules: each 6-field filter entry
		// costs ~200 bytes of modeled SRAM.
		Tables: p4sim.TablesConfig{FilterMemory: 1024, Eviction: p4sim.EvictLRU, ObjectMiss: p4sim.MissPunt},
	})
	owner, reader := c.Node(1), c.Node(0)
	o := adoptHomed(t, c, owner, 4096)

	// Evict the object's shard rule everywhere by installing other
	// shards' rules until the tables cycle.
	shard := c.Sharder.ShardOf(o.ID())
	for _, sw := range c.Switches {
		ft := sw.FilterTable()
		for s := 0; s < c.Sharder.Shards(); s++ {
			if s == shard {
				continue
			}
			installShardRouteForTest(t, c, sw, s)
		}
		if ft.Evictions() == 0 {
			t.Fatalf("%s: no evictions under 1KiB budget", sw.DevName())
		}
	}

	var got *object.Object
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.Run()
	if got == nil {
		t.Fatal("deref incomplete after eviction")
	}
	if c.ShardPunts() == 0 {
		t.Fatal("expected the shard manager to serve at least one punt")
	}
	var punts uint64
	for _, sw := range c.Switches {
		punts += sw.Counters().MissPunts
	}
	if punts == 0 {
		t.Fatal("no switch recorded a miss-punt")
	}
}

// TestShardedEvictionFloodRecovers is the flood side of the same coin:
// the miss costs fabric bandwidth instead of a CPU-port round trip.
func TestShardedEvictionFloodRecovers(t *testing.T) {
	c := newTestCluster(t, Config{
		Scheme:    SchemeSharded,
		NumNodes:  4,
		Discovery: discovery.Config{Shards: 64},
		Tables:    p4sim.TablesConfig{FilterMemory: 1024, Eviction: p4sim.EvictLRU, ObjectMiss: p4sim.MissFlood},
	})
	owner, reader := c.Node(1), c.Node(0)
	o := adoptHomed(t, c, owner, 4096)
	shard := c.Sharder.ShardOf(o.ID())
	for _, sw := range c.Switches {
		for s := 0; s < c.Sharder.Shards(); s++ {
			if s != shard {
				installShardRouteForTest(t, c, sw, s)
			}
		}
	}

	var got *object.Object
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.Run()
	if got == nil {
		t.Fatal("deref incomplete after eviction")
	}
	var floods uint64
	for _, sw := range c.Switches {
		floods += sw.Counters().MissFloods
	}
	if floods == 0 {
		t.Fatal("no switch recorded a miss-flood")
	}
}

// installShardRouteForTest reinstalls shard s's rule on sw the same
// way the shard manager does, displacing colder rules.
func installShardRouteForTest(t *testing.T, c *Cluster, sw *p4sim.Switch, s int) {
	t.Helper()
	port, ok := c.stationRoutes[sw][c.Sharder.Home(s)]
	if !ok {
		t.Fatalf("%s: no route for shard %d", sw.DevName(), s)
	}
	err := discovery.InstallShardRoute(sw.FilterTable(), discovery.ShardRoute{
		Prefix: c.Sharder.Prefix(s),
		Action: p4sim.Action{Type: p4sim.ActForward, Port: port},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShardedTelemetryKeys(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeSharded})
	owner := c.Node(0)
	adoptHomed(t, c, owner, 4096)
	snap := c.Telemetry()
	for _, key := range []string{
		"coherence.directory_entries",
		"coherence.directory_bytes",
		"sharded.shards",
		"sharded.punts_served",
		"sharded.direct_fallbacks",
		"sharded.filter_evictions",
	} {
		if !slices.Contains(snap.Names(), key) {
			t.Fatalf("telemetry snapshot missing %q", key)
		}
	}
	if snap.Value("sharded.shards") != 64 {
		t.Fatalf("sharded.shards = %d", snap.Value("sharded.shards"))
	}
}
