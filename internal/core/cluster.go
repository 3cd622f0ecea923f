// Package core is the paper's primary contribution assembled into a
// runtime: a global object space spanning a cluster, in which both
// data and code are objects named by 128-bit IDs, references cross
// machine boundaries as first-class values, the network routes on data
// identity, and computation is expressed as "run this code reference
// on these data references" with the system — not the programmer —
// choosing where code and data rendezvous (§3).
//
// A Cluster builds the §4 evaluation topology (hosts attached to a
// fabric of interconnected P4 switches, with an optional SDN
// controller) on the deterministic network simulator. Each Node owns a
// store, a transport endpoint, a discovery resolver (E2E, Controller
// or Sharded), a coherence engine, an optional reachability prefetcher,
// a function registry, and a baseline RPC stack for comparisons.
package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/placement"
	"repro/internal/prefetch"
	"repro/internal/realnet"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Scheme selects the discovery scheme (§4).
type Scheme int

// Discovery schemes.
const (
	// SchemeE2E uses host destination caches populated by broadcast.
	SchemeE2E Scheme = iota
	// SchemeController uses an SDN controller installing object
	// routes in switch tables. With Discovery.Replicas above 1 its
	// control plane is replicated across that many stations with raft
	// consensus: announcements commit to a replicated log before switch
	// rules install, and clients follow leader redirects, so killing
	// the leader mid-run loses no committed state.
	SchemeController
	// SchemeSharded derives each object's home from its ID through a
	// rendezvous-hash sharder; the fabric routes on aggregated
	// shard-prefix rules, so switch state scales with the shard count
	// — not the object count (§3.2 at scale).
	SchemeSharded
)

// schemes says what each scheme is made of; everything core builds
// differently per scheme it decides from the scheme's row, and a value
// with no row is refused by NewCluster.
var schemes = [...]struct {
	name    string
	e2e     bool // nodes discover by broadcast, switches learn stations
	control bool // a controller station on the core switch installs routes
	sharded bool // homes derive from the ID, the fabric is programmed up front
}{
	SchemeE2E:        {name: "e2e", e2e: true},
	SchemeController: {name: "controller", control: true},
	SchemeSharded:    {name: "sharded", sharded: true},
}

// String names the scheme.
func (s Scheme) String() string {
	if s >= 0 && int(s) < len(schemes) {
		return schemes[s].name
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// BackendKind selects which backend.Clock/Link implementation a
// cluster runs on.
type BackendKind int

// Backends.
const (
	// BackendSim runs on the deterministic discrete-event simulator
	// (virtual time, bit-identical per seed). The default.
	BackendSim BackendKind = iota
	// BackendRealnet runs the identical stack over localhost UDP
	// sockets on wall-clock time. E2E discovery only (there is no
	// simulated fabric to program), and runs are not deterministic.
	BackendRealnet
)

// String names the backend.
func (b BackendKind) String() string {
	switch b {
	case BackendSim:
		return "sim"
	case BackendRealnet:
		return "realnet"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Config describes a cluster. Each layer's knobs sit in that layer's
// own config struct, which refuses its own bad values; NewCluster adds
// only the rules that span layers. Fabric and Tables are sim-only:
// under BackendRealnet NewCluster refuses either set rather than ignore
// it.
type Config struct {
	// Backend selects the execution backend (default BackendSim).
	Backend BackendKind
	// Seed drives every random source (fully deterministic runs; the
	// realnet backend still uses it for ID generation).
	Seed int64
	// NumNodes is the host count (default 3, like §4).
	NumNodes int
	// Scheme selects discovery.
	Scheme Scheme
	// LinkBitsPerSec is link bandwidth (default 10 Gb/s).
	LinkBitsPerSec int64
	// Trace configures causal span recording (zero = tracing off;
	// off means no frame ever carries wire.FlagTraced, so runs are
	// bit-identical to a build without tracing).
	Trace trace.Config
	// Transport tunes endpoints.
	Transport transport.Config
	// Discovery tunes the resolvers and the control plane.
	Discovery discovery.Config
	// Prefetch turns on the reachability prefetcher and tunes it (nil =
	// off).
	Prefetch *prefetch.Config
	// Fabric shapes the simulated fabric: leaf count, link loss and the
	// host receive path (sim-only; with every field zero, event
	// scheduling is bit-identical to a build without batching).
	Fabric netsim.FabricConfig
	// Tables sizes and governs the switch tables (sim-only).
	Tables p4sim.TablesConfig
}

// Fixed parameters of the §4 testbed model: the evaluation holds one
// small testbed still and varies the discovery scheme. The per-switch
// pipeline delay (1µs) and the controller's rule-install delay (20µs)
// are likewise constants of p4sim and discovery.
const linkLatency = 5 * netsim.Microsecond // per-hop propagation delay

// validate refuses a configuration NewCluster could only misbuild:
// core's own fields out of range, whatever a layer's Validate refuses,
// and the rules that span layers.
func (c *Config) validate() error {
	switch {
	case c.Scheme < 0 || int(c.Scheme) >= len(schemes):
		return fmt.Errorf("core: unknown Scheme %d", int(c.Scheme))
	case c.NumNodes < 0:
		return fmt.Errorf("core: NumNodes must not be negative (got %d)", c.NumNodes)
	case c.NumNodes >= int(controllerStation) || c.Discovery.Replicas > int(wire.StationBroadcast-controllerStation):
		return fmt.Errorf("core: NumNodes %d and Discovery.Replicas %d overrun the stations: nodes count up from 1, controllers from %d, both below StationBroadcast", c.NumNodes, c.Discovery.Replicas, controllerStation)
	case c.LinkBitsPerSec < 0:
		return fmt.Errorf("core: LinkBitsPerSec must not be negative (got %d)", c.LinkBitsPerSec)
	}
	for _, err := range []error{c.Discovery.Validate(), c.Fabric.Validate(), c.Tables.Validate()} {
		if err != nil {
			return err
		}
	}
	if c.Discovery.Replicas > 1 && c.Scheme != SchemeController {
		return fmt.Errorf("core: Discovery.Replicas %d needs SchemeController (got %s): only its control plane is replicated", c.Discovery.Replicas, c.Scheme)
	}
	if c.Backend == BackendRealnet {
		return c.validateRealnet()
	}
	return nil
}

func (c *Config) fill() {
	if c.NumNodes == 0 {
		c.NumNodes = 3
	}
	if c.LinkBitsPerSec == 0 {
		c.LinkBitsPerSec = 10_000_000_000
	}
	if c.Backend == BackendRealnet {
		c.fillRealnet()
	}
	c.Discovery.Fill()
	c.Fabric.Fill()
}

// objMeta is the cluster metadata service's view of one object: the
// "whole-system view of object identity" (§5) that placement consults.
type objMeta struct {
	size int
	home wire.StationID
}

// Cluster is a deployment on either backend.
type Cluster struct {
	cfg Config

	// Clock is the backend clock every node runs on: the simulator
	// under BackendSim, wall time under BackendRealnet.
	Clock backend.Clock

	// Sim and Net are the simulator and its fabric — nil under
	// BackendRealnet. Code that manipulates them directly (fault
	// injection, switch table inspection) is sim-only.
	Sim      *netsim.Sim
	Net      *netsim.Network
	Switches []*p4sim.Switch
	Nodes    []*Node

	// rn is the realnet backend — nil under BackendSim.
	rn *realnet.Cluster

	// Controllers holds every control-plane replica: Discovery.Replicas
	// under SchemeController, none otherwise.
	Controllers     []*discovery.Controller
	controllerNodes []*netsim.Host
	controllerEPs   []*transport.Endpoint
	ctrlDown        []bool

	// Placement is the shared rendezvous engine.
	Placement *placement.Engine

	// Sharder is the shard→home map under SchemeSharded (nil
	// otherwise).
	Sharder *placement.Sharder

	// stationRoutes is each switch's egress port toward each station,
	// kept under SchemeSharded for the shard manager's reinstalls.
	stationRoutes   map[discovery.ProgrammableSwitch]map[wire.StationID]int
	shardsByStation map[wire.StationID][]int
	homedSeq        uint64
	shardMgr        *netsim.Host
	shardPunts      uint64

	// Tracer records causal spans when Config.Trace enables sampling
	// (nil otherwise — a nil recorder is valid and records nothing).
	Tracer *trace.Recorder

	gen  *oid.Generator
	meta map[oid.ID]*objMeta
}

// controllerStation is the controller's well-known station ID.
const controllerStation wire.StationID = 1000

// NewCluster builds a cluster on the configured backend. Under
// BackendSim this is the §4 evaluation topology: one core switch,
// Fabric.Leaves leaf switches, nodes attached round-robin to leaves, and
// (for controller schemes) a controller host on the core switch.
// Under BackendRealnet the same nodes bind localhost UDP sockets in a
// full mesh instead (see cluster_realnet.go).
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	if cfg.Backend == BackendRealnet {
		return newRealnetCluster(cfg)
	}
	return newSimCluster(cfg)
}

func newSimCluster(cfg Config) (*Cluster, error) {
	scheme := schemes[cfg.Scheme]
	c := &Cluster{
		cfg:       cfg,
		Sim:       netsim.NewSim(cfg.Seed),
		gen:       oid.NewSeededGenerator(cfg.Seed + 1),
		meta:      make(map[oid.ID]*objMeta),
		Placement: placement.NewEngine(),
	}
	c.Net = netsim.NewNetwork(c.Sim)
	c.Net.SetBatchDelivery(cfg.Fabric.BatchDelivery)
	c.Net.SetHostRxCost(cfg.Fabric.HostRxCost)
	link := netsim.LinkConfig{
		Latency:    linkLatency,
		BitsPerSec: cfg.LinkBitsPerSec,
		DropRate:   cfg.Fabric.DropRate,
	}

	swCfg := p4sim.SwitchConfig{
		ObjectTableMemory: cfg.Tables.ObjectMemory,
		LearnStations:     scheme.e2e,
		ObjectEviction:    cfg.Tables.Eviction,
		ObjectMiss:        cfg.Tables.ObjectMiss,
	}

	// Core switch: Fabric.Leaves downlinks + one port per control-plane
	// replica; without a controller the one port is the CPU port.
	ctrlStations := c.controllerStations()
	coreSw, err := p4sim.NewSwitch(c.Net, "core", cfg.Fabric.Leaves+max(1, len(ctrlStations)), swCfg)
	if err != nil {
		return nil, err
	}
	c.Switches = append(c.Switches, coreSw)

	// Leaf switches: 1 uplink + enough host ports. Under the sharded
	// scheme a leaf's punts climb the uplink toward the core, whose
	// CPU port hosts the shard manager.
	leafCfg := swCfg
	leafCfg.PuntUplink = scheme.sharded
	hostsPerLeaf := (cfg.NumNodes + cfg.Fabric.Leaves - 1) / cfg.Fabric.Leaves
	for i := 0; i < cfg.Fabric.Leaves; i++ {
		leaf, err := p4sim.NewSwitch(c.Net, fmt.Sprintf("leaf%d", i), hostsPerLeaf+1, leafCfg)
		if err != nil {
			return nil, err
		}
		if err := c.Net.Connect(coreSw, i, leaf, 0, link); err != nil {
			return nil, err
		}
		c.Switches = append(c.Switches, leaf)
	}

	// Nodes.
	stations := make(map[wire.StationID]netsim.Device)
	for i := 0; i < cfg.NumNodes; i++ {
		leaf := c.Switches[1+i%cfg.Fabric.Leaves]
		port := 1 + i/cfg.Fabric.Leaves
		host, err := netsim.NewHost(c.Net, fmt.Sprintf("node%d", i))
		if err != nil {
			return nil, err
		}
		if err := c.Net.Connect(host, 0, leaf, port, link); err != nil {
			return nil, err
		}
		st := wire.StationID(i + 1)
		stations[st] = host
		n, err := newNode(c, host, st)
		if err != nil {
			return nil, err
		}
		n.Host = host
		c.Nodes = append(c.Nodes, n)
	}

	// Control plane: Discovery.Replicas replicas under SchemeController
	// (raft-replicated when more than one).
	if len(ctrlStations) > 0 {
		// Hosts first, so every replica's route computation sees the
		// complete station map (including its peers).
		for i, st := range ctrlStations {
			name := "controller"
			if i > 0 {
				name = fmt.Sprintf("controller-%d", i)
			}
			ch, err := netsim.NewHost(c.Net, name)
			if err != nil {
				return nil, err
			}
			if err := c.Net.Connect(ch, 0, coreSw, cfg.Fabric.Leaves+i, link); err != nil {
				return nil, err
			}
			stations[st] = ch
			c.controllerNodes = append(c.controllerNodes, ch)
		}
		for i, st := range ctrlStations {
			ep := transport.NewEndpoint(c.controllerNodes[i], st, cfg.Transport)
			ctrl := discovery.NewController(ep, ctrlStations, uint64(cfg.Seed))
			for _, sw := range c.Switches {
				ctrl.AddSwitch(sw)
			}
			if err := ctrl.ComputeRoutes(c.Net, stations); err != nil {
				return nil, err
			}
			if i == 0 {
				// Station tables are identical from every replica's view;
				// program them once.
				if err := ctrl.ProgramStationTables(); err != nil {
					return nil, err
				}
			}
			ep.Mux().Handle(wire.MsgAnnounce, ctrl.HandleFrame)
			ep.Mux().Handle(wire.MsgLocate, ctrl.HandleFrame)
			if rn := ctrl.Raft(); rn != nil {
				ep.Mux().Handle(wire.MsgRaft, rn.HandleFrame)
			}
			c.Controllers = append(c.Controllers, ctrl)
			c.controllerEPs = append(c.controllerEPs, ep)
		}
		c.ctrlDown = make([]bool, len(c.Controllers))
	}

	// Sharded scheme: homes are a pure function of the ID, so the
	// fabric is programmed once, up front — station tables for unicast
	// plus aggregated shard-prefix rules for object-routed frames —
	// and a shard manager on the core CPU port restores evicted rules.
	if scheme.sharded {
		if err := c.wireSharded(cfg, stations, coreSw, link); err != nil {
			return nil, err
		}
	}

	// Tracing: one recorder spans the whole cluster, so a single
	// operation's spans line up across requester, switches, links and
	// responder on the shared virtual clock.
	c.Tracer = trace.NewRecorder(c.Sim, cfg.Trace)
	if c.Tracer != nil {
		c.Net.SetFrameSpanHook(c.Tracer.LinkHook())
		for _, sw := range c.Switches {
			sw.SetTracer(c.Tracer)
		}
		for i, ctrl := range c.Controllers {
			ctrl.SetTracer(c.Tracer)
			c.controllerEPs[i].SetTracer(c.Tracer)
		}
	}

	// Wire resolvers now that the controller exists.
	for _, n := range c.Nodes {
		n.initResolver(cfg)
	}
	c.Clock = c.Sim
	return c, nil
}

// wireSharded programs the fabric for SchemeSharded: it builds the
// rendezvous sharder over the node stations, installs station tables
// on every switch (the unicast reply path), compiles each switch's
// aggregated shard-prefix rules into a filter table, and attaches a
// shard manager to the core switch's CPU port to serve punts.
func (c *Cluster) wireSharded(cfg Config, stations map[wire.StationID]netsim.Device,
	coreSw *p4sim.Switch, link netsim.LinkConfig) error {
	members := make([]wire.StationID, len(c.Nodes))
	for i, n := range c.Nodes {
		members[i] = n.Station
	}
	c.Sharder = placement.NewSharder(cfg.Discovery.Shards, members)
	c.shardsByStation = c.Sharder.Assignments()

	progSwitches := make([]discovery.ProgrammableSwitch, len(c.Switches))
	for i, sw := range c.Switches {
		progSwitches[i] = sw
	}
	routes, err := discovery.ComputeStationRoutes(c.Net, progSwitches, stations)
	if err != nil {
		return err
	}
	c.stationRoutes = routes
	for _, sw := range c.Switches {
		for st, port := range routes[sw] {
			if err := sw.InstallStationRoute(st, port); err != nil {
				return err
			}
		}
	}

	// Per-switch shard rules: shard s forwards toward Home(s). The
	// rules land in the filter table (consulted before the object
	// table), under their own SRAM budget and eviction policy.
	for _, sw := range c.Switches {
		var shardRoutes []discovery.ShardRoute
		for s := 0; s < c.Sharder.Shards(); s++ {
			port, ok := routes[sw][c.Sharder.Home(s)]
			if !ok {
				return fmt.Errorf("core: switch %s has no route to shard %d home", sw.DevName(), s)
			}
			shardRoutes = append(shardRoutes, discovery.ShardRoute{
				Prefix: c.Sharder.Prefix(s),
				Action: p4sim.Action{Type: p4sim.ActForward, Port: port},
			})
		}
		ft, err := discovery.NewFilterTable(sw.DevName()+"/shard", p4sim.TableConfig{
			MemoryBytes: cfg.Tables.FilterMemory,
			Eviction:    cfg.Tables.Eviction,
		})
		if err != nil {
			return err
		}
		if err := discovery.CompileShardRoutes(ft, discovery.AggregateRoutes(shardRoutes)); err != nil {
			return err
		}
		sw.SetFilterTable(ft)
	}

	// Shard manager: a raw host (not a transport endpoint — it must
	// not ack frames it relays) on the core CPU port. Object-routed
	// frames whose shard rule was evicted punt here; the manager
	// reinstalls the rule on every switch and forwards the frame to
	// its home by station address.
	mgr, err := netsim.NewHost(c.Net, "shardmgr")
	if err != nil {
		return err
	}
	if err := c.Net.Connect(mgr, 0, coreSw, cfg.Fabric.Leaves, link); err != nil {
		return err
	}
	c.shardMgr = mgr
	mgr.SetOnFrame(func(fr netsim.Frame) {
		var h wire.Header
		if err := h.DecodeFrom(fr); err != nil {
			return
		}
		if h.Flags&wire.FlagRouteOnObject == 0 || h.Dst != wire.StationAny {
			return
		}
		c.shardPunts++
		shard := c.Sharder.ShardOf(h.Object)
		route := discovery.ShardRoute{Prefix: c.Sharder.Prefix(shard)}
		for _, sw := range c.Switches {
			ft := sw.FilterTable()
			port, ok := c.stationRoutes[sw][c.Sharder.Home(shard)]
			if ft == nil || !ok {
				continue
			}
			route.Action = p4sim.Action{Type: p4sim.ActForward, Port: port}
			// Best-effort: under EvictNone a full table keeps rejecting
			// and the frame still reaches its home via the rewrite below.
			_ = discovery.InstallShardRoute(ft, route)
		}
		h.Dst = c.Sharder.Home(shard)
		h.Flags &^= wire.FlagRouteOnObject
		out, err := wire.Encode(&h, wire.Payload(fr))
		if err != nil {
			return
		}
		mgr.Send(out)
	})
	return nil
}

// ShardPunts reports how many object-routed frames the shard manager
// has served after a shard-rule miss punted them to the CPU port.
func (c *Cluster) ShardPunts() uint64 { return c.shardPunts }

// NewIDHomedAt allocates a fresh object ID whose sharded home is the
// given station. The ID is drawn from one of the station's shards
// round-robin, so fabric routing and resolver agree on placement with
// no metadata. It returns false, and draws nothing, when no ID can home
// there: under every scheme but SchemeSharded, and when rendezvous
// assigned the station no shards (possible when shards < stations).
func (c *Cluster) NewIDHomedAt(st wire.StationID) (oid.ID, bool) {
	shards := c.shardsByStation[st]
	if len(shards) == 0 {
		return oid.ID{}, false
	}
	c.homedSeq++
	return c.gen.NewInPrefix(c.Sharder.Prefix(shards[c.homedSeq%uint64(len(shards))])), true
}

// RegisterAll installs fn under symbol in every node's registry —
// the common case for code that should be runnable wherever the
// system places it.
func (c *Cluster) RegisterAll(symbol string, fn Func) {
	for _, n := range c.Nodes {
		n.Registry.Register(symbol, fn)
	}
}

// Run drains the event loop. Sim-only: wall time cannot be drained —
// under BackendRealnet use RunFor (which sleeps) or Await on futures.
func (c *Cluster) Run() {
	if c.Sim == nil {
		panic("core: Run is sim-only; under BackendRealnet wait with RunFor or Await")
	}
	c.Sim.Run()
}

// RunFor advances virtual time by d under the simulator, or sleeps d
// of wall time under realnet (deliveries and timers proceed
// underneath).
func (c *Cluster) RunFor(d netsim.Duration) {
	if c.Sim != nil {
		c.Sim.RunFor(d)
		return
	}
	c.rn.Sleep(d)
}

// Close releases backend resources (realnet sockets and reader
// goroutines). A sim cluster needs no teardown; Close is always safe
// to defer.
func (c *Cluster) Close() error {
	if c.rn != nil {
		return c.rn.Close()
	}
	return nil
}

// Exec runs fn serialized with every node's upcalls — the safe entry
// point for harness code that touches node state. Under the
// simulator, upcalls only run inside Run/RunFor, so fn runs inline.
func (c *Cluster) Exec(fn func()) {
	if c.rn == nil {
		fn()
		return
	}
	c.rn.Exec(fn)
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// NewID allocates a fresh object ID.
func (c *Cluster) NewID() oid.ID { return c.gen.New() }

// Generator exposes the cluster's ID generator (for builders that
// allocate many objects, e.g. model partitioning).
func (c *Cluster) Generator() *oid.Generator { return c.gen }

// registerMeta records an object with the metadata service.
func (c *Cluster) registerMeta(obj oid.ID, size int, home wire.StationID) {
	c.meta[obj] = &objMeta{size: size, home: home}
}

// Locate answers the metadata service's view of an object.
func (c *Cluster) Locate(obj oid.ID) (home wire.StationID, size int, ok bool) {
	m, found := c.meta[obj]
	if !found {
		return 0, 0, false
	}
	return m.home, m.size, true
}

// homeAt records that node now holds obj's home copy: it announces,
// the metadata service points at it, and its coherence directory is
// rebuilt by scanning the other live nodes for cached copies — the
// previous home's sharer list does not travel (or died with it), and a
// write at the new home must still invalidate every copy it granted.
func (c *Cluster) homeAt(obj oid.ID, size int, node *Node) {
	node.Resolver.Announce(obj)
	if m, ok := c.meta[obj]; ok {
		m.home = node.Station
	} else {
		c.registerMeta(obj, size, node.Station)
	}
	for _, other := range c.Nodes {
		if other != node && !other.down && other.Store.Contains(obj) {
			node.Coherence.AddSharer(obj, other.Station)
		}
	}
}

// MoveObject migrates an object's home between nodes with a byte-level
// copy: the mechanism behind Figure 3's "moved objects" and the §3.1
// serialization claim. The movement itself is performed out-of-band
// (as by an operator or rebalancer); discovery state updates
// accordingly: the new home announces, the old home withdraws —
// requesters with stale destination caches discover the move on their
// next access. The sharers follow the object: copies the old home
// granted are in the new home's directory.
func (c *Cluster) MoveObject(obj oid.ID, from, to *Node) error {
	e, ok := from.Store.Lookup(obj)
	if !ok {
		return fmt.Errorf("core: move source: %w: %s", store.ErrNotFound, obj.Short())
	}
	raw := e.Obj.CloneBytes()
	version := e.Version
	if err := from.Store.Delete(obj); err != nil {
		return err
	}
	from.Resolver.Withdraw(obj)
	moved, err := object.FromBytes(obj, raw)
	if err != nil {
		return err
	}
	if err := to.Store.Put(moved, version, true); err != nil {
		return err
	}
	c.homeAt(obj, len(raw), to)
	return nil
}

// ReplicateObject seeds a cached copy of a home object at node (the
// replication §5 discusses for masking failures). The copy registers
// with the home's coherence directory like any fetched copy, so
// writes still invalidate it.
func (c *Cluster) ReplicateObject(obj oid.ID, at *Node, cb func(error)) {
	at.Coherence.AcquireShared(obj).Then(func(_ *object.Object, err error) { cb(err) })
}

// PromoteReplica makes node's cached copy of obj the authoritative
// home — the recovery step after the original home fails. The caller
// is responsible for ensuring the old home is really gone (promoting
// while it lives creates two homes). The new home's coherence
// directory is rebuilt by scanning the other live nodes for cached
// copies, so post-promotion writes still invalidate every sharer. Its
// version is above every live copy's: one fresher than the replica (an
// invalidate to it was lost) must not pass for it in a data-less grant
// or release.
func (c *Cluster) PromoteReplica(obj oid.ID, node *Node) error {
	e, ok := node.Store.Lookup(obj)
	if !ok {
		return fmt.Errorf("core: no replica at %v: %w: %s", node.Station, store.ErrNotFound, obj.Short())
	}
	if e.Home {
		return nil
	}
	version := e.Version
	for _, other := range c.Nodes {
		if o, ok := other.Store.Peek(obj); ok && !other.down {
			version = max(version, o.Version)
		}
	}
	// Re-put as home: ends its eviction.
	if err := node.Store.Put(e.Obj, version+1, true); err != nil {
		return err
	}
	c.homeAt(obj, e.Obj.Size(), node)
	return nil
}

// CrashNode fail-stops node i: its access link goes down and all of
// its volatile state — object store (home copies included), resolver
// caches, coherence directory, transport timers — is lost, exactly as
// a process crash loses it. It returns the IDs of the objects the
// node was home for, so a recovery orchestrator can promote surviving
// replicas. Crashing an already-down node is a no-op.
func (c *Cluster) CrashNode(i int) []oid.ID {
	if c.Net == nil {
		panic("core: CrashNode is sim-only (realnet has no injectable link failures)")
	}
	n := c.Nodes[i]
	if n.down {
		return nil
	}
	homed := n.Store.HomeList()
	c.Net.SetLinkDown(n.Host, 0, true)
	n.EP.Reset()
	n.Store.Clear()
	n.Resolver.Reset()
	n.Coherence.Reset()
	n.down = true
	// A dead node is no longer a placement candidate.
	c.Placement.RemoveNode(n.Station)
	return homed
}

// RestartNode brings a crashed node back with an empty store — the
// durable state is gone; only the process and its link return. The
// node rejoins the placement pool and serves fresh traffic, but
// objects it was home for stay lost until promoted elsewhere or
// re-created. Restarting a live node is a no-op.
func (c *Cluster) RestartNode(i int) {
	if c.Net == nil {
		panic("core: RestartNode is sim-only")
	}
	n := c.Nodes[i]
	if !n.down {
		return
	}
	c.Net.SetLinkDown(n.Host, 0, false)
	n.down = false
	c.Placement.SetNode(n.placementInfo())
}

// netStats reads the backend's frame counters.
func (c *Cluster) netStats() backend.NetStats {
	if c.Net != nil {
		return c.Net.Stats()
	}
	s, _ := c.rn.Stats()
	return s
}

// ResetStats zeroes network, switch, and mux counters.
func (c *Cluster) ResetStats() {
	if c.Net != nil {
		c.Net.ResetStats()
	} else {
		c.rn.ResetStats()
	}
	for _, sw := range c.Switches {
		sw.ResetCounters()
	}
	for _, n := range c.Nodes {
		n.EP.Mux().ResetStats()
	}
	for _, ep := range c.controllerEPs {
		ep.Mux().ResetStats()
	}
}

// AddTelemetry registers every stats surface in the cluster —
// network, upcall locks, switches, endpoints, muxes, discovery,
// coherence, prefetch, RPC, tracing — into r with stable snake_case names.
// Callers (the workload harness, benchmarks) layer their own
// counters into the same registry before snapshotting. It takes every
// upcall lock, so under realnet it is called outside Exec.
func (c *Cluster) AddTelemetry(r *telemetry.Registry) {
	r.Add("net", c.netStats())
	if c.rn != nil {
		_, locks := c.rn.Stats()
		r.Add("realnet.lock", locks)
	}
	// The rest is node state realnet's reader goroutines write; rn.Stats
	// above takes the locks itself.
	c.Exec(func() { c.addNodeTelemetry(r) })
}

// addNodeTelemetry is AddTelemetry's part that reads node state.
func (c *Cluster) addNodeTelemetry(r *telemetry.Registry) {
	for _, sw := range c.Switches {
		r.Add("switch", sw.Counters())
	}
	// Per endpoint: counters and mux stats sum; the measured round trip
	// and the retransmit timeout are the largest any endpoint holds for
	// a peer, which is what says why a frame retransmitted.
	var srtt, rto backend.Duration
	var retransmits uint64
	addEndpoint := func(ep *transport.Endpoint) {
		tc := ep.Counters()
		r.Add("transport", tc)
		r.Add("mux", ep.Mux().Stats())
		s, t := ep.RTT()
		srtt, rto = max(srtt, s), max(rto, t)
		retransmits += tc.Retransmits
	}
	for _, n := range c.Nodes {
		addEndpoint(n.EP)
		r.Add("coherence", n.Coherence.Counters())
		if n.Prefetch != nil {
			r.Add("prefetch", n.Prefetch.Counters())
		}
		if n.e2e != nil {
			r.Add("discovery", n.e2e.Counters())
		}
		if n.cc != nil {
			r.Add("discovery", n.cc.Counters())
		}
		if n.sharded != nil {
			r.Add("discovery", n.sharded.Counters())
		}
		r.Add("rpc_client", n.RPCClient.Counters())
		r.Add("rpc_server", n.RPCServer.Counters())
	}
	for _, ep := range c.controllerEPs {
		addEndpoint(ep)
	}
	r.Set("transport.srtt_us", uint64(srtt/backend.Microsecond))
	r.Set("transport.rto_us", uint64(rto/backend.Microsecond))
	// transport.acks_implicit_total comes with the counters; bench/
	// reads retransmits under the older unsuffixed name, which stays.
	r.Set("transport.retransmits_total", retransmits)
	// Consensus state of the replicated control plane: term and commit
	// index are cluster-wide maxima, election counts cluster-wide sums.
	if rafts := c.RaftNodes(); len(rafts) > 0 {
		var term, commit, elections, leaderChanges uint64
		for _, rn := range rafts {
			if t := rn.Term(); t > term {
				term = t
			}
			if ci := rn.CommitIndex(); ci > commit {
				commit = ci
			}
			elections += rn.Counters().ElectionsStarted
			leaderChanges += rn.Counters().BecameLeader
		}
		r.Set("raft.term", term)
		r.Set("raft.commit_index", commit)
		r.Set("raft.elections_total", elections)
		r.Set("raft.leader_changes_total", leaderChanges)
	}
	// Directory footprint: how much coherence-directory state the
	// cluster carries per object is the headline scale metric (E12).
	var dirEntries, dirBytes uint64
	for _, n := range c.Nodes {
		d := n.Coherence.Directory()
		dirEntries += uint64(d.Len())
		dirBytes += uint64(d.Bytes())
	}
	r.Set("coherence.directory_entries", dirEntries)
	r.Set("coherence.directory_bytes", dirBytes)
	if c.Sharder != nil {
		r.Set("sharded.shards", uint64(c.Sharder.Shards()))
		r.Set("sharded.punts_served", c.shardPunts)
		var fallbacks, evictions uint64
		for _, n := range c.Nodes {
			if n.sharded != nil {
				fallbacks += uint64(n.sharded.DirectFallbacks())
			}
		}
		for _, sw := range c.Switches {
			if ft := sw.FilterTable(); ft != nil {
				evictions += ft.Evictions()
			}
		}
		r.Set("sharded.direct_fallbacks", fallbacks)
		r.Set("sharded.filter_evictions", evictions)
	}
	if c.Tracer != nil {
		r.Set("trace.spans", uint64(len(c.Tracer.Spans())))
		r.Set("trace.dropped", c.Tracer.Dropped())
	}
}

// Telemetry flattens every stats surface into one snapshot. Per-node
// counters registered under a shared prefix sum across nodes; the
// native typed accessors (Stats, Counters) remain for callers that
// need per-instance or per-type breakdowns.
func (c *Cluster) Telemetry() telemetry.Snapshot {
	r := telemetry.NewRegistry()
	c.AddTelemetry(r)
	return r.Snapshot()
}
