package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/discovery"
	"repro/internal/future"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/p4sim"
	"repro/internal/wire"
)

// TestRealnetEndToEnd runs the identical coherence/discovery stack
// over real localhost UDP sockets: create an object on one node, read
// and write it from another, awaiting each future on wall time.
func TestRealnetEndToEnd(t *testing.T) {
	c, err := NewCluster(Config{Backend: BackendRealnet, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var g object.Global
	c.Exec(func() {
		o, err := c.Node(1).CreateObject(4096)
		if err != nil {
			t.Fatal(err)
		}
		g = object.Global{Obj: o.ID()}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wf *future.Future[struct{}]
	c.Exec(func() {
		wf = c.Node(0).Coherence.WriteAt(g.Obj, object.HeaderSize, []byte("over real sockets"))
	})
	if _, err := Await(ctx, c, wf); err != nil {
		t.Fatalf("write over UDP: %v", err)
	}

	var rf *future.Future[[]byte]
	c.Exec(func() {
		rf = c.Node(2).Coherence.ReadAt(g.Obj, object.HeaderSize, 17)
	})
	got, err := Await(ctx, c, rf)
	if err != nil {
		t.Fatalf("read over UDP: %v", err)
	}
	if string(got) != "over real sockets" {
		t.Fatalf("read %q", got)
	}

	if tel := c.Telemetry(); tel.Value("net.frames_sent") == 0 || tel.Value("net.frames_delivered") == 0 {
		t.Fatal("no frames crossed the sockets")
	}
}

// TestRealnetExecExcludesEveryNode: Cluster.Exec holds every node's
// upcall lock, so frames that reach nodes 1 and 2 while it runs are
// delivered only once it returns.
func TestRealnetExecExcludesEveryNode(t *testing.T) {
	c, err := NewCluster(Config{Backend: BackendRealnet, NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var inExec atomic.Bool
	var delivered, early atomic.Int32
	c.Exec(func() {
		for _, n := range c.Nodes[1:] {
			n.Link.SetOnFrame(func(backend.Frame) {
				if inExec.Load() {
					early.Add(1)
				}
				delivered.Add(1)
			})
		}
	})
	c.Exec(func() {
		inExec.Store(true)
		for _, n := range c.Nodes[1:] {
			fr, err := wire.Encode(&wire.Header{Type: wire.MsgHello, Src: c.Node(0).Station, Dst: n.Station}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c.Node(0).Link.SendBuf(fr, nil)
		}
		c.RunFor(50 * netsim.Millisecond) // time enough for a reader goroutine Exec failed to exclude
		inExec.Store(false)
	})
	for i := 0; i < 5000 && delivered.Load() < 2; i++ {
		c.RunFor(netsim.Millisecond)
	}
	if delivered.Load() != 2 || early.Load() != 0 {
		t.Fatalf("%d frames delivered, %d of them while Exec ran; want 2 and 0", delivered.Load(), early.Load())
	}
}

// TestNewClusterRefusals pins the clear-error contract: a setting that
// could only be ignored is refused at construction with an error naming
// the field, and the nearest valid configuration builds.
func TestNewClusterRefusals(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = must build
	}{
		{"realnet controller", Config{Backend: BackendRealnet, Scheme: SchemeController}, "e2e"},
		{"realnet loss", Config{Backend: BackendRealnet, Fabric: netsim.FabricConfig{DropRate: 0.1}}, "Fabric.DropRate"},
		{"realnet batching", Config{Backend: BackendRealnet, Fabric: netsim.FabricConfig{BatchDelivery: true}}, "Fabric.BatchDelivery"},
		{"realnet rx cost", Config{Backend: BackendRealnet, Fabric: netsim.FabricConfig{HostRxCost: netsim.Microsecond}}, "Fabric.HostRxCost"},
		{"realnet leaves", Config{Backend: BackendRealnet, Fabric: netsim.FabricConfig{Leaves: 7}}, "Fabric.Leaves"},
		{"realnet eviction", Config{Backend: BackendRealnet, Tables: p4sim.TablesConfig{Eviction: p4sim.EvictLRU}}, "Tables.Eviction"},
		{"realnet miss policy", Config{Backend: BackendRealnet, Tables: p4sim.TablesConfig{ObjectMiss: p4sim.MissFlood}}, "Tables.ObjectMiss"},
		{"realnet object memory", Config{Backend: BackendRealnet, Tables: p4sim.TablesConfig{ObjectMemory: 64}}, "Tables.ObjectMemory"},
		{"realnet filter memory", Config{Backend: BackendRealnet, Tables: p4sim.TablesConfig{FilterMemory: 64}}, "Tables.FilterMemory"},
		{"realnet plain", Config{Backend: BackendRealnet}, ""},

		// A scheme with no row would leave every node without a Resolver
		// (a nil dereference at the first CreateObject); a negative
		// replica count would reach the core switch as a port number.
		{"unknown scheme", Config{Scheme: Scheme(99)}, "Scheme 99"},
		{"unknown scheme realnet", Config{Backend: BackendRealnet, Scheme: Scheme(-1)}, "Scheme -1"},
		{"negative replicas", Config{Scheme: SchemeController, Discovery: discovery.Config{Replicas: -1}}, "Replicas"},
		{"one replica", Config{Scheme: SchemeController, Discovery: discovery.Config{Replicas: 1}}, ""},
		// Only the controller scheme's control plane is replicated.
		{"replicas sharded", Config{Scheme: SchemeSharded, Discovery: discovery.Config{Replicas: 3}}, "Replicas 3 needs SchemeController"},
		{"replicas e2e", Config{Discovery: discovery.Config{Replicas: 2}}, "Replicas 2 needs SchemeController"},

		// Out-of-range values a layer would misuse: a negative node count
		// builds an empty cluster (and panics the sharder), a negative
		// bandwidth means infinite, a drop rate above one is no
		// probability, and negative shard and retry counts build.
		{"negative nodes", Config{NumNodes: -2}, "NumNodes"},
		{"negative nodes sharded", Config{Scheme: SchemeSharded, NumNodes: -2}, "NumNodes"},
		// Node i is station i+1 and controllers count up from station
		// 1000, so a thousandth node would share a controller's station.
		{"nodes reach the controllers", Config{NumNodes: 1000}, "NumNodes 1000"},
		{"negative bandwidth", Config{LinkBitsPerSec: -1}, "LinkBitsPerSec"},
		{"drop rate above one", Config{Fabric: netsim.FabricConfig{DropRate: 1.5}}, "DropRate"},
		{"negative shards", Config{Scheme: SchemeSharded, Discovery: discovery.Config{Shards: -4}}, "Shards"},
		{"negative retries", Config{Discovery: discovery.Config{Retries: -3}}, "Retries"},

		{"sim batching", Config{Fabric: netsim.FabricConfig{BatchDelivery: true, HostRxCost: netsim.Microsecond}}, ""},
		{"sim eviction", Config{Tables: p4sim.TablesConfig{Eviction: p4sim.EvictLRU, ObjectMiss: p4sim.MissFlood}}, ""},
	}
	for _, tc := range cases {
		c, err := NewCluster(tc.cfg)
		if err == nil {
			c.Close()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: valid config refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	// Controllers count up from station 1000; one that reached
	// StationBroadcast would flood. Checked on validate alone, so a
	// regression cannot build tens of thousands of replicas.
	huge := Config{Scheme: SchemeController, Discovery: discovery.Config{Replicas: 64536}}
	if err := huge.validate(); err == nil || !strings.Contains(err.Error(), "Replicas 64536") {
		t.Errorf("64,536 replicas: %v, want an error naming Replicas 64536", err)
	}
}
