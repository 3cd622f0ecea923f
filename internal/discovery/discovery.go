// Package discovery implements how the network learns the location of
// objects — the two schemes measured in §4:
//
//   - E2E: a decentralized, ARP-analogous scheme. Each host keeps a
//     destination cache mapping object IDs to stations, populated by
//     broadcasting a DISCOVER on first access. Worst-case 2 RTTs when
//     the cache is cold or stale; broadcasts load the fabric.
//
//   - Controller: an SDN scheme. Hosts ANNOUNCE objects to a
//     controller, which installs object→port rules in every switch so
//     accesses route directly on the object ID: uniform 1 RTT and
//     unicast, at the cost of switch table occupancy.
package discovery

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/gasperr"
	"repro/internal/oid"
	"repro/internal/raft"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ProgrammableSwitch is the control plane's view of a fabric switch:
// a device whose object and station routing tables the controller can
// program. internal/p4sim's Switch implements it; the interface keeps
// this package independent of any one fabric implementation.
type ProgrammableSwitch interface {
	backend.Device
	// InstallObjectRoute maps an object key to an egress port.
	InstallObjectRoute(key wire.Value, port int) error
	// InstallStationRoute maps a station ID to an egress port.
	InstallStationRoute(st wire.StationID, port int) error
}

// Topology answers connectivity questions about the fabric so the
// controller can compute routes. *netsim.Network implements it.
type Topology interface {
	// NumPorts returns the number of ports dev was registered with.
	NumPorts(dev backend.Device) int
	// Peer returns the device and port on the far side of (dev, port)'s
	// link, if connected.
	Peer(dev backend.Device, port int) (backend.Device, int, bool)
}

// ErrNotFound reports that no host answered for an object. It wraps
// gasperr.ErrNotFound so callers can classify without importing this
// package.
var ErrNotFound = fmt.Errorf("discovery: object not found: %w", gasperr.ErrNotFound)

// locateReplyLen is the payload size of a full MsgLocateReply: a
// status byte followed by the owner's station ID. Failure replies
// carry the status byte alone.
const locateReplyLen = 1 + wire.StationIDSize

// Result is the outcome of a resolution.
type Result struct {
	// Station is the object holder's station (E2E). Unset when
	// RouteOnObject is true.
	Station wire.StationID
	// RouteOnObject means the fabric will forward on the object ID;
	// no station is needed.
	RouteOnObject bool
	// CacheHit reports whether the resolution was answered locally.
	CacheHit bool
	// Broadcasts is the number of broadcast frames this resolution
	// originated (Figure 2's right axis counts these).
	Broadcasts int
}

// Resolver locates objects.
type Resolver interface {
	// Resolve finds obj, calling cb exactly once.
	Resolve(obj oid.ID, cb func(Result, error))
	// ResolveCtx is Resolve carrying a trace context: a sampled
	// operation passes its span so the resolution (and any frames it
	// sends) appears in the operation's span tree. A zero context is
	// equivalent to Resolve.
	ResolveCtx(obj oid.ID, tc trace.Ctx, cb func(Result, error))
	// Invalidate drops any cached location for obj (stale-entry
	// feedback from a failed access).
	Invalidate(obj oid.ID)
	// Announce advertises that this host now holds obj.
	Announce(obj oid.ID)
	// Withdraw retracts an announcement (obj moved away).
	Withdraw(obj oid.ID)
	// Reset drops all soft resolver state (caches, stale marks),
	// modeling a host crash/restart losing its in-memory tables.
	Reset()
}

// Counters aggregates resolver statistics.
type Counters struct {
	Resolves      uint64
	CacheHits     uint64
	CacheMisses   uint64
	Broadcasts    uint64
	Invalidations uint64
	Announces     uint64
	Failures      uint64
	// Relocates counts controller re-resolutions (MsgLocate) issued
	// after a route-on-object delivery failure.
	Relocates uint64
}

// Config tunes discovery across a cluster. A zero field takes its
// default (Fill); a negative one is refused (Validate).
type Config struct {
	// Timeout bounds one E2E broadcast (default 2ms).
	Timeout backend.Duration
	// Retries is the E2E rebroadcast count after a lost discovery
	// (default 2; broadcasts are unacknowledged, so loss is recovered
	// ARP-style by asking again).
	Retries int
	// Replicas is the control-plane replica count of the controller
	// scheme (default 1; above 1 the replicas run raft, and schemes
	// without a replicable controller refuse it).
	Replicas int
	// Shards is the shard count of the sharded scheme, rounded up to a
	// power of two (default 64; other schemes ignore it). More shards
	// spread load finer but cost more aggregated rules.
	Shards int
}

// Fill sets every zero field to its default.
func (c *Config) Fill() {
	if c.Timeout == 0 {
		c.Timeout = 2 * backend.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Shards == 0 {
		c.Shards = 64
	}
}

// Validate refuses negative values.
func (c Config) Validate() error {
	switch {
	case c.Timeout < 0:
		return fmt.Errorf("discovery: Timeout must not be negative (got %v)", c.Timeout)
	case c.Retries < 0:
		return fmt.Errorf("discovery: Retries must not be negative (got %d)", c.Retries)
	case c.Replicas < 0:
		return fmt.Errorf("discovery: Replicas must not be negative (got %d)", c.Replicas)
	case c.Shards < 0:
		return fmt.Errorf("discovery: Shards must not be negative (got %d)", c.Shards)
	}
	return nil
}

// --- E2E scheme ---

// E2E is the decentralized destination-cache resolver.
type E2E struct {
	ep   *transport.Endpoint
	has  func(oid.ID) bool
	auth func(oid.ID) bool

	cache    map[oid.ID]wire.StationID
	cfg      Config // filled: Timeout and Retries bound each broadcast
	fallback backend.Duration
	tracer   *trace.Recorder
	counters Counters
}

// DefaultFallbackDelay is how long a host holding only a cached
// (non-authoritative) copy waits before answering a DISCOVER. The
// authoritative holder answers immediately, so when it is alive its
// reply wins the race and requests converge on it; when it is dead or
// unreachable the delayed reply keeps the object discoverable.
const DefaultFallbackDelay = 100 * backend.Microsecond

// NewE2E creates an E2E resolver over ep, broadcasting under cfg's
// Timeout and Retries. has answers whether this host currently holds
// an object (so it can respond to DISCOVERs).
func NewE2E(ep *transport.Endpoint, has func(oid.ID) bool, cfg Config) *E2E {
	cfg.Fill()
	return &E2E{
		ep:       ep,
		has:      has,
		cache:    make(map[oid.ID]wire.StationID),
		cfg:      cfg,
		fallback: DefaultFallbackDelay,
	}
}

// SetAuthority installs a predicate telling whether this host holds
// the authoritative copy of an object. When set, DISCOVERs for objects
// held only as cached copies are answered after the fallback delay
// instead of immediately — coherence requests that retain state
// (acquires) must reach the home, so discovery must prefer it while it
// is alive. When unset every copy answers immediately.
func (e *E2E) SetAuthority(fn func(oid.ID) bool) { e.auth = fn }

// SetTracer attaches a span recorder for traced resolutions.
func (e *E2E) SetTracer(r *trace.Recorder) { e.tracer = r }

// Counters returns a copy of the statistics.
func (e *E2E) Counters() Counters { return e.counters }

// CacheLen returns the destination cache size.
func (e *E2E) CacheLen() int { return len(e.cache) }

// HandleFrame consumes DISCOVER queries addressed to objects this host
// holds. It returns true if the frame was consumed.
func (e *E2E) HandleFrame(h *wire.Header, payload []byte) bool {
	if h.Type != wire.MsgDiscover {
		return false
	}
	if e.has != nil && e.has(h.Object) {
		if e.auth != nil && !e.auth(h.Object) {
			req := *h
			e.ep.Clock().Schedule(e.fallback, func() {
				e.ep.Respond(&req, wire.Header{Type: wire.MsgDiscoverReply, Object: req.Object}, nil)
			})
			return true
		}
		e.ep.Respond(h, wire.Header{Type: wire.MsgDiscoverReply, Object: h.Object}, nil)
	}
	return true
}

// Resolve implements Resolver: cache hit answers immediately; a miss
// broadcasts a DISCOVER and caches the replying station.
func (e *E2E) Resolve(obj oid.ID, cb func(Result, error)) {
	e.ResolveCtx(obj, trace.Ctx{}, cb)
}

// ResolveCtx implements Resolver with trace propagation: the
// resolution gets a resolve span under tc, and DISCOVER broadcasts
// carry the span so fabric hops attach to it.
func (e *E2E) ResolveCtx(obj oid.ID, tc trace.Ctx, cb func(Result, error)) {
	e.counters.Resolves++
	sp := e.tracer.StartSpan(tc, trace.KindResolve, "resolve:e2e")
	if st, ok := e.cache[obj]; ok {
		e.counters.CacheHits++
		sp.SetAttr("cache", "hit")
		sp.End()
		cb(Result{Station: st, CacheHit: true}, nil)
		return
	}
	e.counters.CacheMisses++
	sp.SetAttr("cache", "miss")
	e.broadcast(obj, 0, sp, func(r Result, err error) {
		sp.End()
		cb(r, err)
	})
}

// broadcast issues one DISCOVER and retries on timeout.
func (e *E2E) broadcast(obj oid.ID, attempt int, sp *trace.Span, cb func(Result, error)) {
	e.counters.Broadcasts++
	hdr := wire.Header{Type: wire.MsgDiscover, Dst: wire.StationBroadcast, Object: obj}
	sp.Ctx().Inject(&hdr)
	_, err := e.ep.Request(hdr, nil, e.cfg.Timeout,
		func(resp *wire.Header, _ []byte, err error) {
			if err != nil {
				if attempt < e.cfg.Retries {
					e.broadcast(obj, attempt+1, sp, cb)
					return
				}
				e.counters.Failures++
				cb(Result{Broadcasts: attempt + 1},
					fmt.Errorf("%w: %s (%v)", ErrNotFound, obj.Short(), err))
				return
			}
			e.cache[obj] = resp.Src
			cb(Result{Station: resp.Src, Broadcasts: attempt + 1}, nil)
		})
	if err != nil {
		e.counters.Failures++
		cb(Result{}, err)
	}
}

// Invalidate implements Resolver.
func (e *E2E) Invalidate(obj oid.ID) {
	if _, ok := e.cache[obj]; ok {
		delete(e.cache, obj)
		e.counters.Invalidations++
	}
}

// Announce implements Resolver: a local object is its own cache entry.
func (e *E2E) Announce(obj oid.ID) {
	e.counters.Announces++
	e.cache[obj] = e.ep.Station()
}

// Withdraw implements Resolver.
func (e *E2E) Withdraw(obj oid.ID) { delete(e.cache, obj) }

// Reset implements Resolver: the destination cache is in-memory state
// a crash wipes. The next access per object pays a fresh broadcast.
func (e *E2E) Reset() { e.cache = make(map[oid.ID]wire.StationID) }

// --- Controller scheme ---

// Controller is the SDN control plane: it learns object locations from
// ANNOUNCE messages and programs object→port rules into every switch.
// Built with more than one replica station it is one replica of a
// raft-replicated control plane; with one or none, the same code runs
// as the degenerate single replica (no consensus node, no extra
// frames).
type Controller struct {
	ep       *transport.Endpoint
	switches []ProgrammableSwitch
	// routes[sw][station] is the egress port on sw toward station.
	routes map[ProgrammableSwitch]map[wire.StationID]int
	clock  backend.Clock
	tracer *trace.Recorder

	// Replication (empty/nil for the degenerate single controller).
	replicas []wire.StationID
	seed     uint64
	raft     *raft.Node

	// objects is the applied state machine: in replicated mode it is
	// only ever mutated by applyCommand, so replicas converge.
	objects  map[oid.ID]wire.StationID
	counters struct {
		Announces       uint64
		RulesInstalled  uint64
		InstallFailures uint64
	}
}

// NewController creates a controller bound to ep. replicas is the full
// control-plane replica set, this replica's own station included: more
// than one station turns on raft replication, with seed perturbing its
// election jitter; nil is the original unreplicated design.
func NewController(ep *transport.Endpoint, replicas []wire.StationID, seed uint64) *Controller {
	c := &Controller{
		ep:       ep,
		routes:   make(map[ProgrammableSwitch]map[wire.StationID]int),
		clock:    ep.Clock(),
		replicas: replicas,
		seed:     seed,
		objects:  make(map[oid.ID]wire.StationID),
	}
	if len(c.replicas) > 1 {
		c.raft = raft.New(raft.Config{
			Peers:          c.replicas,
			EP:             ep,
			Seed:           c.seed,
			Apply:          c.applyCommand,
			OnLeaderChange: c.onLeaderChange,
		})
	}
	return c
}

// AddSwitch registers a switch the controller programs.
func (c *Controller) AddSwitch(sw ProgrammableSwitch) {
	c.switches = append(c.switches, sw)
	if c.routes[sw] == nil {
		c.routes[sw] = make(map[wire.StationID]int)
	}
}

// SetTracer attaches a span recorder: traced announce/locate requests
// get an install span covering the rule-programming delay.
func (c *Controller) SetTracer(r *trace.Recorder) { c.tracer = r }

// Announces returns the number of announcements processed.
func (c *Controller) Announces() uint64 { return c.counters.Announces }

// RulesInstalled returns the number of switch rules programmed.
func (c *Controller) RulesInstalled() uint64 { return c.counters.RulesInstalled }

// InstallFailures returns the number of rule installs rejected (table
// full).
func (c *Controller) InstallFailures() uint64 { return c.counters.InstallFailures }

// Objects returns how many objects the controller tracks.
func (c *Controller) Objects() int { return len(c.objects) }

// ComputeRoutes BFSes the topology from every station's host to fill
// each switch's station routing (used both for rule installation and
// to pre-program station tables so replies unicast).
func (c *Controller) ComputeRoutes(net Topology, stations map[wire.StationID]backend.Device) error {
	routes, err := ComputeStationRoutes(net, c.switches, stations)
	if err != nil {
		return err
	}
	for sw, m := range routes {
		if c.routes[sw] == nil {
			c.routes[sw] = make(map[wire.StationID]int)
		}
		for st, port := range m {
			c.routes[sw][st] = port
		}
	}
	return nil
}

// ProgramStationTables installs station→port rules on every switch so
// unicast replies forward without flooding or learning.
func (c *Controller) ProgramStationTables() error {
	for _, sw := range c.switches {
		for st, port := range c.routes[sw] {
			if err := sw.InstallStationRoute(st, port); err != nil {
				return err
			}
		}
	}
	return nil
}

// installObject programs obj→owner routes on every switch, returning 0
// on full success and 1 if any switch could not hold the rule.
func (c *Controller) installObject(obj oid.ID, owner wire.StationID) byte {
	status := byte(0)
	for _, sw := range c.switches {
		port, haveRoute := c.routes[sw][owner]
		if !haveRoute {
			c.counters.InstallFailures++
			status = 1
			continue
		}
		if err := sw.InstallObjectRoute(wire.ValueOfID(obj), port); err != nil {
			c.counters.InstallFailures++
			status = 1
			continue
		}
		c.counters.RulesInstalled++
	}
	return status
}

// ReinstallAll replays every tracked object's rules into the switches —
// the controller's bulk repair after a table wipe. It returns the
// number of objects whose rules installed cleanly.
func (c *Controller) ReinstallAll() int {
	ok := 0
	for _, obj := range sortedObjects(c.objects) {
		if c.installObject(obj, c.objects[obj]) == 0 {
			ok++
		}
	}
	return ok
}

// sortedObjects returns the keys of m in deterministic (byte) order so
// repair replays are reproducible run to run.
func sortedObjects(m map[oid.ID]wire.StationID) []oid.ID {
	out := make([]oid.ID, 0, len(m))
	for obj := range m {
		out = append(out, obj)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Less(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Forget drops ownership records for objects owned by station st (the
// station crashed and its objects are gone until re-announced). In
// replicated mode the forget is itself a command — every replica must
// drop the records, not just the one that noticed the crash — so it
// routes through Propose (a follower quietly declines; the caller
// retries against the leader).
func (c *Controller) Forget(st wire.StationID) {
	c.Propose(Command{Op: OpForget, Owner: st}, nil)
}

// HandleFrame consumes MsgAnnounce (commit ownership, program object
// routes on all switches after installDelay, acknowledge), MsgLocate
// (demand repair: re-install one object's rules and answer with the
// owner station). One body serves the single controller and a raft
// replica alike: unreplicated, IsLeader is always true and Propose
// applies synchronously.
func (c *Controller) HandleFrame(h *wire.Header, payload []byte) bool {
	switch h.Type {
	case wire.MsgAnnounce:
		c.handleAnnounce(h)
		return true
	case wire.MsgLocate:
		c.handleLocate(h)
		return true
	}
	return false
}

// installSpan opens a rule-install span for a traced request: the
// interval from request arrival through the programming delay.
func (c *Controller) installSpan(req *wire.Header) *trace.Span {
	if c.tracer == nil || req.Flags&wire.FlagTraced == 0 {
		return nil
	}
	return c.tracer.StartSpan(trace.Ctx{Trace: req.TraceID, Span: req.SpanID},
		trace.KindInstall, "install:"+req.Type.String())
}

func installStatus(status byte) string {
	if status == 0 {
		return "ok"
	}
	return "partial"
}

// --- Controller client (host side) ---

// ControllerClient is a host's resolver under the controller scheme.
// It targets one station of the control-plane membership at a time,
// following leader redirects and rotating on timeouts when the
// control plane is replicated.
type ControllerClient struct {
	ep *transport.Endpoint
	// controllers is the membership list; cur indexes the replica
	// currently believed to lead.
	controllers []wire.StationID
	cur         int
	redirects   uint64
	counters    Counters
	// acked tracks objects whose announcement completed.
	acked map[oid.ID]bool
	// stale marks objects whose route-on-object delivery failed; the
	// next Resolve re-locates through the controller instead of
	// trusting the fabric.
	stale           map[oid.ID]bool
	locateTimeout   backend.Duration
	locateRetries   int
	announceRetries int
	// retryDelay spaces retries after a not-leader reply with no
	// usable hint, so a client does not spin while an election runs.
	// Transport-level failures back off exponentially from retryDelay
	// up to maxRetryDelay: with every replica unreachable the client
	// must probe politely, not hammer the membership in a tight
	// rotate loop.
	retryDelay    backend.Duration
	maxRetryDelay backend.Duration
	tracer        *trace.Recorder
}

// NewControllerClient creates a client for the control plane whose
// replicas sit at controllers (at least one station). With one station
// the client behaves exactly like the original single-controller
// design; with several it follows leader redirects and rotates on
// timeouts, retrying announces that land on followers.
func NewControllerClient(ep *transport.Endpoint, controllers []wire.StationID) *ControllerClient {
	if len(controllers) == 0 {
		panic("discovery: NewControllerClient needs at least one controller station")
	}
	cc := &ControllerClient{
		ep:            ep,
		controllers:   controllers,
		acked:         make(map[oid.ID]bool),
		stale:         make(map[oid.ID]bool),
		locateTimeout: 2 * backend.Millisecond,
		locateRetries: 2,
		retryDelay:    100 * backend.Microsecond,
		maxRetryDelay: 2 * backend.Millisecond,
	}
	if len(controllers) > 1 {
		// Announce redirects/timeouts are retried; the budget walks the
		// full membership a few times so one full election fits inside
		// it. Unreplicated keeps the original fire-once path.
		cc.announceRetries = 3 * len(controllers)
		cc.locateRetries = 3 * len(controllers)
	}
	return cc
}

// Counters returns a copy of the statistics.
func (cc *ControllerClient) Counters() Counters { return cc.counters }

// SetTracer attaches a span recorder for traced resolutions.
func (cc *ControllerClient) SetTracer(r *trace.Recorder) { cc.tracer = r }

// Announce implements Resolver: notify the control plane (reliable
// request; the ack confirms rules are active).
func (cc *ControllerClient) Announce(obj oid.ID) { cc.AnnounceCB(obj, nil) }

// AnnounceCB is Announce with completion feedback: cb (optional)
// fires once with nil when the announcement is acknowledged — under a
// replicated control plane, after the record committed — or with the
// final error once the retry budget is spent.
func (cc *ControllerClient) AnnounceCB(obj oid.ID, cb func(error)) {
	cc.counters.Announces++
	cc.call(wire.Header{Type: wire.MsgAnnounce, Object: obj}, nil, 0, cc.announceRetries,
		func(_ []byte, err error) {
			if err == nil {
				cc.acked[obj] = true
			} else if err == gasperr.ErrNotLeader {
				err = fmt.Errorf("discovery: announce %s: %w", obj.Short(), err)
			}
			if cb != nil {
				cb(err)
			}
		})
}

// call sends one request to the replica believed to lead and owns the
// retry policy of every control-plane request. A follower's not-leader
// reply aims at the leader it named (or the next replica) and waits
// retryDelay, giving an election time to settle; a transport error
// rotates to the next replica and backs off; either way the request goes
// out again, up to retries more times. reply gets the first payload a
// leader answered with, or the last error (gasperr.ErrNotLeader itself
// when a follower had the last word).
func (cc *ControllerClient) call(hdr wire.Header, payload []byte, timeout backend.Duration, retries int,
	reply func(payload []byte, err error)) {
	var try func(attempt int)
	try = func(attempt int) {
		hdr.Dst = cc.controllers[cc.cur]
		_, err := cc.ep.Request(hdr, payload, timeout, func(_ *wire.Header, payload []byte, err error) {
			delay := cc.retryDelay
			switch {
			case err != nil:
				cc.rotate()
				delay = cc.backoff(attempt)
			case len(payload) > 0 && payload[0] == notLeaderStatus:
				cc.redirect(payload)
				err = gasperr.ErrNotLeader
			default:
				reply(payload, nil)
				return
			}
			if attempt < retries {
				cc.ep.Clock().Schedule(delay, func() { try(attempt + 1) })
				return
			}
			reply(nil, err)
		})
		if err != nil {
			reply(nil, err)
		}
	}
	try(0)
}

// Announced reports whether obj's announcement has been acknowledged.
func (cc *ControllerClient) Announced(obj oid.ID) bool { return cc.acked[obj] }

// Resolve implements Resolver: under the controller scheme the fabric
// itself routes on the object ID — resolution is immediate and local.
// Objects marked stale by a failed delivery re-locate through the
// controller first, which re-installs their fabric rules (healing
// wiped or out-of-date tables) before the access is retried.
func (cc *ControllerClient) Resolve(obj oid.ID, cb func(Result, error)) {
	cc.ResolveCtx(obj, trace.Ctx{}, cb)
}

// ResolveCtx implements Resolver with trace propagation.
func (cc *ControllerClient) ResolveCtx(obj oid.ID, tc trace.Ctx, cb func(Result, error)) {
	cc.counters.Resolves++
	sp := cc.tracer.StartSpan(tc, trace.KindResolve, "resolve:controller")
	if cc.stale[obj] {
		cc.counters.CacheMisses++
		sp.SetAttr("stale", "true")
		cc.locate(obj, sp, func(r Result, err error) {
			sp.End()
			cb(r, err)
		})
		return
	}
	cc.counters.CacheHits++
	// The fabric routes on the object ID: resolution is free.
	sp.SetAttr("route-on-object", "true")
	sp.End()
	cb(Result{RouteOnObject: true, CacheHit: true}, nil)
}

// locate asks the control plane where obj lives and waits for its
// rules to be re-installed. Under a replicated control plane call's
// rotation and redirects are what let a client re-discover a moved
// control plane instead of being pinned to one hardcoded station.
func (cc *ControllerClient) locate(obj oid.ID, sp *trace.Span, cb func(Result, error)) {
	cc.counters.Relocates++
	hdr := wire.Header{Type: wire.MsgLocate, Object: obj}
	sp.Ctx().Inject(&hdr)
	cc.call(hdr, nil, cc.locateTimeout, cc.locateRetries, func(payload []byte, err error) {
		switch {
		case err == gasperr.ErrNotLeader:
			err = fmt.Errorf("discovery: locate %s: %w", obj.Short(), err)
		case err != nil:
			err = fmt.Errorf("%w: %s (%v)", ErrNotFound, obj.Short(), err)
		case len(payload) >= 1 && payload[0] == 0:
			delete(cc.stale, obj)
			cb(Result{RouteOnObject: true}, nil)
			return
		case len(payload) >= locateReplyLen:
			// Owner known but the rules would not fit the tables.
			err = fmt.Errorf("discovery: locate %s: %w", obj.Short(), gasperr.ErrTableFull)
		default:
			// Controller does not know the object (owner crashed and
			// nothing has re-announced it yet).
			err = fmt.Errorf("%w: %s", ErrNotFound, obj.Short())
		}
		cc.counters.Failures++
		cb(Result{}, err)
	})
}

// backoff spaces the attempt'th retry after a transport-level failure:
// exponential from retryDelay, capped at maxRetryDelay.
func (cc *ControllerClient) backoff(attempt int) backend.Duration {
	d := cc.retryDelay
	for i := 0; i < attempt && d < cc.maxRetryDelay; i++ {
		d *= 2
	}
	if d > cc.maxRetryDelay {
		d = cc.maxRetryDelay
	}
	return d
}

// Invalidate implements Resolver: a failed route-on-object delivery
// marks the object stale so the next Resolve consults the controller.
func (cc *ControllerClient) Invalidate(obj oid.ID) {
	if !cc.stale[obj] {
		cc.stale[obj] = true
		cc.counters.Invalidations++
	}
}

// Withdraw implements Resolver. The rules age out at the controller;
// movement re-announces from the new owner, overwriting routes.
func (cc *ControllerClient) Withdraw(oid.ID) {}

// Reset implements Resolver: announcement acks and stale marks are
// in-memory state a crash wipes. The restarted node re-announces what
// it still holds.
func (cc *ControllerClient) Reset() {
	cc.acked = make(map[oid.ID]bool)
	cc.stale = make(map[oid.ID]bool)
}
