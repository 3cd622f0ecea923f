package core

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/coherence"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/placement"
	"repro/internal/prefetch"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Node is one host in the global object space.
type Node struct {
	cluster *Cluster
	Station wire.StationID
	// Link is the node's backend attachment (always set).
	Link backend.Link
	// Host is the simulated NIC — nil under BackendRealnet. Sim-only
	// machinery (fault injection, topology surgery) goes through it.
	Host *netsim.Host
	EP   *transport.Endpoint

	Store     *store.Store
	Resolver  discovery.Resolver
	Coherence *coherence.Node
	Prefetch  *prefetch.Prefetcher
	Registry  *Registry

	// Baseline RPC stack on the same station for comparisons.
	RPCServer *rpc.Server
	RPCClient *rpc.Client

	// e2e is the discovery responder (nil under pure controller).
	e2e     *discovery.E2E
	cc      *discovery.ControllerClient
	sharded *discovery.Sharded

	// ComputeRate and Load feed the placement engine.
	ComputeRate float64
	Load        float64

	// down marks a crashed node (see Cluster.CrashNode).
	down bool
}

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// newNode wires a node's endpoint and store; resolver wiring happens
// in initResolver after the controller exists.
func newNode(c *Cluster, link backend.Link, st wire.StationID) (*Node, error) {
	n := &Node{
		cluster:     c,
		Station:     st,
		Link:        link,
		EP:          transport.NewEndpoint(link, st, c.cfg.Transport),
		Store:       store.New(0), // unbounded
		Registry:    NewRegistry(),
		ComputeRate: 1,
	}
	n.RPCServer = rpc.NewServer(n.EP)
	n.RPCClient = rpc.NewClient(n.EP)
	return n, nil
}

// initResolver builds the node's resolver per the cluster scheme and
// installs the frame dispatch chain.
func (n *Node) initResolver(cfg Config) {
	scheme := schemes[cfg.Scheme]
	if scheme.e2e {
		n.e2e = discovery.NewE2E(n.EP, n.Store.Contains, cfg.Discovery)
		n.e2e.SetAuthority(n.Store.IsHome)
	}
	if scheme.control {
		n.cc = discovery.NewControllerClient(n.EP, n.cluster.controllerStations())
	}
	switch {
	case scheme.sharded:
		// Per-node instance: the demoted-to-direct set is local soft
		// state, but the sharder itself is shared and immutable.
		n.sharded = discovery.NewSharded(n.cluster.Sharder)
		n.Resolver = n.sharded
	case scheme.control:
		n.Resolver = n.cc
	default:
		n.Resolver = n.e2e
	}
	n.Coherence = coherence.NewNode(n.EP, n.Store, n.Resolver)
	if tr := n.cluster.Tracer; tr != nil {
		n.EP.SetTracer(tr)
		n.Coherence.SetTracer(tr)
		n.RPCClient.SetTracer(tr)
		if n.e2e != nil {
			n.e2e.SetTracer(tr)
		}
		if n.cc != nil {
			n.cc.SetTracer(tr)
		}
	}
	if cfg.Prefetch != nil {
		n.Prefetch = prefetch.New(n.Coherence, n.Store.Contains, *cfg.Prefetch)
	}
	n.Registry.registerInvoke(n)
	mux := n.EP.Mux()
	if n.e2e != nil {
		mux.Handle(wire.MsgDiscover, n.e2e.HandleFrame)
	}
	mux.Handle(wire.MsgMem, n.Coherence.HandleFrame)
	mux.Handle(wire.MsgRPC, n.RPCServer.HandleFrame, n.RPCClient.HandleFrame)
	n.cluster.Placement.SetNode(n.placementInfo())
}

// placementInfo snapshots the node for the rendezvous engine.
func (n *Node) placementInfo() placement.NodeInfo {
	return placement.NodeInfo{
		Station:        n.Station,
		ComputeRate:    n.ComputeRate,
		Load:           n.Load,
		LinkBitsPerSec: n.cluster.cfg.LinkBitsPerSec,
	}
}

// SetLoadProfile updates the node's compute rate and load and
// republishes them to the placement engine.
func (n *Node) SetLoadProfile(rate, load float64) {
	n.ComputeRate, n.Load = rate, load
	n.cluster.Placement.SetNode(n.placementInfo())
}

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.cluster }

// Discovery returns the node's controller client — nil under schemes
// that resolve without a control plane. Experiments and scenarios use
// it for acknowledged announces (AnnounceCB, which has no future form)
// and redirect counters.
func (n *Node) Discovery() *discovery.ControllerClient { return n.cc }

// Clock returns the backend clock the node runs on.
func (n *Node) Clock() backend.Clock { return n.EP.Clock() }

// NewHomedID allocates a fresh ID for an object this node will home.
// Under SchemeSharded the fabric routes on the ID's shard prefix, so the
// ID comes from one of this node's shards; every other scheme finds an
// object wherever it was adopted, and takes a plain NewID.
func (n *Node) NewHomedID() oid.ID {
	if id, ok := n.cluster.NewIDHomedAt(n.Station); ok {
		return id
	}
	return n.cluster.NewID()
}

// CreateObject allocates a fresh object homed at this node, announces
// it, and registers it with the metadata service.
func (n *Node) CreateObject(size int) (*object.Object, error) {
	o, err := object.New(n.NewHomedID(), size, 0)
	if err != nil {
		return nil, err
	}
	if err := n.AdoptObject(o); err != nil {
		return nil, err
	}
	return o, nil
}

// AdoptObject homes a pre-built object (e.g. a model object) at this
// node.
func (n *Node) AdoptObject(o *object.Object) error {
	if err := n.Store.Put(o, 1, true); err != nil {
		return err
	}
	n.Resolver.Announce(o.ID())
	n.cluster.registerMeta(o.ID(), o.Size(), n.Station)
	return nil
}

// AdoptObjectLite homes a pre-built object without registering it with
// the cluster metadata service — the million-object population path,
// where per-object harness maps would dominate memory. Lite objects
// cannot be moved or replicated via cluster metadata operations.
func (n *Node) AdoptObjectLite(o *object.Object) error {
	if err := n.Store.Put(o, 1, true); err != nil {
		return err
	}
	n.Resolver.Announce(o.ID())
	return nil
}

// RestrictReaders limits who may read a home object to the given
// stations (nil restores world-readability). References to the object
// remain passable by anyone; only dereferencing is gated — §1's "the
// invoker may wish to refer to data that they lack privileges to
// read".
func (n *Node) RestrictReaders(obj oid.ID, stations ...wire.StationID) error {
	e, ok := n.Store.Lookup(obj)
	if !ok {
		return fmt.Errorf("%w: %s", store.ErrNotFound, obj.Short())
	}
	if !e.Home {
		return fmt.Errorf("core: ACLs are set at the object's home")
	}
	if stations == nil {
		return n.Store.SetReaders(obj, nil)
	}
	return n.Store.SetReaders(obj, append([]wire.StationID{n.Station}, stations...)) // the home always reads
}

// Deref resolves a global reference to a locally usable object,
// fetching (and caching) it if remote, and triggering the prefetcher.
func (n *Node) Deref(g object.Global) *Future[*object.Object] {
	if g.IsNil() {
		f := new(Future[*object.Object])
		f.Resolve(nil, fmt.Errorf("core: nil reference"))
		return f
	}
	if n.Prefetch == nil {
		return n.Coherence.AcquireShared(g.Obj)
	}
	wasLocal := n.Store.Contains(g.Obj)
	return n.Coherence.AcquireShared(g.Obj).Then(func(o *object.Object, err error) {
		if err == nil && !wasLocal {
			n.Prefetch.OnFetch(o)
		}
	})
}

// DerefAll fetches several references, resolving when all arrive or at
// the first failure.
func (n *Node) DerefAll(gs []object.Global) *Future[[]*object.Object] {
	f := new(Future[[]*object.Object])
	out := make([]*object.Object, len(gs))
	remaining := len(gs)
	if remaining == 0 {
		f.Resolve(out, nil)
		return f
	}
	for i, g := range gs {
		n.Deref(g).Then(func(o *object.Object, err error) {
			if err != nil {
				f.Resolve(nil, err)
				return
			}
			out[i] = o
			if remaining--; remaining == 0 {
				f.Resolve(out, nil)
			}
		})
	}
	return f
}
