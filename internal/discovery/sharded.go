package discovery

import (
	"fmt"
	"slices"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/p4sim"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Sharded resolves object homes through a placement.Sharder instead
// of per-object state: the home of an object is a pure function of
// its ID, so resolution is a local computation — no cache, no
// broadcast, no controller round trip, no per-object directory entry
// anywhere in the control plane. The fabric forwards on the object ID
// via aggregated shard-prefix rules (see CompileShardRoutes);
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

// ShardRoute binds one object-ID prefix to a forwarding action — the
// aggregated-rule form of §3.2's hierarchical identifier overlay:
// a switch routes a whole shard of the ID space with one ternary
// entry instead of one exact entry per object.
type ShardRoute struct {
	Prefix oid.Prefix
	Action p4sim.Action
}

// AggregateRoutes merges sibling prefixes that share an action into
// their parent, repeatedly, until no merge applies. Input routes must
// be non-overlapping (e.g. the equal-length shard partition a
// placement.Sharder produces); under that precondition the merge is
// exact — a parent rule replaces exactly the union of its two
// children, so no ID changes its action. The returned slice is sorted
// by (bits, prefix) and is typically far smaller than the input when
// neighboring shards land on the same egress port.
func AggregateRoutes(routes []ShardRoute) []ShardRoute {
	out := slices.Clone(routes)
	for {
		slices.SortFunc(out, func(a, b ShardRoute) int {
			if a.Prefix.Bits != b.Prefix.Bits {
				return a.Prefix.Bits - b.Prefix.Bits
			}
			if a.Prefix.ID != b.Prefix.ID {
				if a.Prefix.ID.Less(b.Prefix.ID) {
					return -1
				}
				return 1
			}
			return 0
		})
		merged := out[:0]
		changed := false
		for i := 0; i < len(out); i++ {
			if i+1 < len(out) && out[i].Prefix.Bits == out[i+1].Prefix.Bits &&
				out[i].Prefix.Bits > 0 && out[i].Action == out[i+1].Action {
				b := out[i].Prefix.Bits
				parent := oid.MakePrefix(out[i].Prefix.ID, b-1)
				if out[i].Prefix.ID != out[i+1].Prefix.ID && parent.Matches(out[i+1].Prefix.ID) {
					merged = append(merged, ShardRoute{Prefix: parent, Action: out[i].Action})
					changed = true
					i++ // consumed the sibling
					continue
				}
			}
			merged = append(merged, out[i])
		}
		out = merged
		if !changed {
			return out
		}
	}
}

// CompileShardRoutes clears table (which must use the FilterKeys
// schema) and installs one ternary entry per route: the object field
// under the prefix mask, gated on FlagRouteOnObject so aggregated
// rules steer only object-routed requests — never unicast responses,
// which also carry the object ID in their header. Longer prefixes get
// higher priority, giving longest-prefix-match semantics when routes
// of mixed length coexist after aggregation.
func CompileShardRoutes(table *p4sim.Table, routes []ShardRoute) error {
	table.Clear()
	for _, r := range routes {
		if err := table.Insert(shardEntry(r)); err != nil {
			return fmt.Errorf("discovery: shard route %v: %w", r.Prefix, err)
		}
	}
	return nil
}

// allOnes is the ID whose prefixes are the object field's masks.
var allOnes = oid.ID{Hi: ^uint64(0), Lo: ^uint64(0)}

// shardEntry builds the FilterKeys-schema entry for one shard route.
func shardEntry(r ShardRoute) p4sim.Entry {
	flag := wire.ValueOf(uint64(wire.FlagRouteOnObject))
	match := make([]p4sim.KeyValue, len(FilterKeys()))
	for i, k := range FilterKeys() {
		switch k.Field {
		case wire.FieldFlags:
			match[i] = p4sim.KeyValue{Value: flag, Mask: flag}
		case wire.FieldObject:
			match[i] = p4sim.KeyValue{
				Value: wire.ValueOfID(r.Prefix.ID),
				Mask:  wire.ValueOfID(oid.MakePrefix(allOnes, r.Prefix.Bits).ID),
			}
		}
	}
	return p4sim.Entry{Match: match, Priority: r.Prefix.Bits, Action: r.Action}
}

// InstallShardRoute (re)installs a single shard route without clearing
// the table: any existing entry with the same match is replaced first,
// so the call is idempotent. The sharded scheme's shard manager uses
// it to restore rules the eviction policy displaced.
func InstallShardRoute(table *p4sim.Table, r ShardRoute) error {
	e := shardEntry(r)
	table.Delete(e.Match)
	if err := table.Insert(e); err != nil {
		return fmt.Errorf("discovery: shard route %v: %w", r.Prefix, err)
	}
	return nil
}

// MatchShardRoutes evaluates routes in longest-prefix-match order for
// an object ID — the reference semantics CompileShardRoutes must
// reproduce in the table (the fuzz target checks them against each
// other).
func MatchShardRoutes(routes []ShardRoute, id oid.ID) (p4sim.Action, bool) {
	best := -1
	var act p4sim.Action
	for _, r := range routes {
		if r.Prefix.Matches(id) && r.Prefix.Bits > best {
			best = r.Prefix.Bits
			act = r.Action
		}
	}
	return act, best >= 0
}

// FilterKeys is the ternary key schema of a switch's filter table:
// every matchable field of the fixed header.
func FilterKeys() []p4sim.Key {
	return []p4sim.Key{
		{Field: wire.FieldType, Kind: p4sim.MatchTernary},
		{Field: wire.FieldFlags, Kind: p4sim.MatchTernary},
		{Field: wire.FieldSrc, Kind: p4sim.MatchTernary},
		{Field: wire.FieldDst, Kind: p4sim.MatchTernary},
		{Field: wire.FieldObject, Kind: p4sim.MatchTernary},
		{Field: wire.FieldSeq, Kind: p4sim.MatchTernary},
	}
}

// NewFilterTable builds a table with the FilterKeys schema.
func NewFilterTable(name string, cfg p4sim.TableConfig) (*p4sim.Table, error) {
	return p4sim.NewTable(name, FilterKeys(), cfg)
}
