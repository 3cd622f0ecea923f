package discovery

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Sharded resolves object homes through a placement.Sharder instead
// of per-object state: the home of an object is a pure function of
// its ID, so resolution is a local computation — no cache, no
// broadcast, no controller round trip, no per-object directory entry
// anywhere in the control plane. The fabric forwards on the object ID
// via aggregated shard-prefix rules (see pubsub.CompileShardRoutes);
// when a shard rule has been evicted and the fabric fails the access,
// Invalidate demotes the object to direct unicast-to-home, which
// rides the always-present station tables.
type Sharded struct {
	sharder *placement.Sharder
	// direct holds objects demoted to station-addressed fallback after
	// a route-on-object delivery failure.
	direct   map[oid.ID]struct{}
	counters Counters
}

// NewSharded builds a sharded resolver over the cluster's sharder.
func NewSharded(s *placement.Sharder) *Sharded {
	return &Sharded{sharder: s, direct: make(map[oid.ID]struct{})}
}

// DirectFallbacks reports how many objects this resolver has demoted
// to unicast-to-home.
func (s *Sharded) DirectFallbacks() int { return len(s.direct) }

// Resolve implements Resolver: every resolution is a local hit.
func (s *Sharded) Resolve(obj oid.ID, cb func(Result, error)) {
	s.ResolveCtx(obj, trace.Ctx{}, cb)
}

// ResolveCtx implements Resolver.
func (s *Sharded) ResolveCtx(obj oid.ID, _ trace.Ctx, cb func(Result, error)) {
	s.counters.Resolves++
	s.counters.CacheHits++
	if _, demoted := s.direct[obj]; demoted {
		cb(Result{Station: s.sharder.HomeOf(obj), CacheHit: true}, nil)
		return
	}
	cb(Result{RouteOnObject: true, CacheHit: true}, nil)
}

// Invalidate implements Resolver: a failed route-on-object access
// means the fabric's shard rule is missing (evicted, or lost to a
// table wipe); fall back to addressing the home station directly.
func (s *Sharded) Invalidate(obj oid.ID) {
	s.counters.Invalidations++
	s.direct[obj] = struct{}{}
}

// Announce implements Resolver. Home placement is a function of the
// ID, so there is nothing to advertise.
func (s *Sharded) Announce(oid.ID) { s.counters.Announces++ }

// Withdraw implements Resolver (no-op; see Announce).
func (s *Sharded) Withdraw(oid.ID) {}

// Reset implements Resolver: the direct-fallback set is soft state.
func (s *Sharded) Reset() { s.direct = make(map[oid.ID]struct{}) }

// Counters returns a copy of the resolver statistics.
func (s *Sharded) Counters() Counters { return s.counters }

// ComputeStationRoutes BFSes the topology from every station's host
// and returns, for each switch, the egress port leading toward each
// station. It errors if any switch cannot reach any station. The
// controller scheme uses it to program reply paths; the sharded
// scheme uses it both for station tables and to derive each switch's
// shard-rule egress ports.
func ComputeStationRoutes(net Topology, switches []ProgrammableSwitch,
	stations map[wire.StationID]backend.Device) (map[ProgrammableSwitch]map[wire.StationID]int, error) {
	routes := make(map[ProgrammableSwitch]map[wire.StationID]int, len(switches))
	swSet := make(map[backend.Device]ProgrammableSwitch, len(switches))
	for _, sw := range switches {
		routes[sw] = make(map[wire.StationID]int)
		swSet[sw] = sw
	}
	for st, hostDev := range stations {
		// BFS outward from the host; the first port by which a switch
		// is reached points back toward the host.
		visited := map[backend.Device]bool{hostDev: true}
		queue := []backend.Device{hostDev}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			n := net.NumPorts(cur)
			for p := 0; p < n; p++ {
				peer, peerPort, ok := net.Peer(cur, p)
				if !ok || visited[peer] {
					continue
				}
				visited[peer] = true
				if sw, isSw := swSet[peer]; isSw {
					// peerPort on sw leads back toward the host.
					routes[sw][st] = peerPort
				}
				queue = append(queue, peer)
			}
		}
		// Sanity: every switch must have a route to every station.
		for _, sw := range switches {
			if _, ok := routes[sw][st]; !ok {
				return nil, fmt.Errorf("discovery: switch %s has no route to %s", sw.DevName(), st)
			}
		}
	}
	return routes, nil
}
