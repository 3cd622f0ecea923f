// Sharder maps object IDs to coherence home stations by rendezvous
// hashing over a fixed power-of-two shard space. It answers the §3.2
// capacity question at million-object scale: the shard — not the
// object — is the routing unit, so switch state and directory
// ownership scale with the shard count while objects stay free to
// fill the 128-bit ID space.
//
// The shard index is the top bits of id.Hi. Object IDs are uniformly
// random (oid.Generator draws raw random words), so this needs no
// cooperation from allocation, and it makes every shard a contiguous
// ID prefix: one ternary switch rule of Prefix(shard) covers every
// object the shard will ever hold.
package placement

import (
	"fmt"
	"math/bits"

	"repro/internal/oid"
	"repro/internal/wire"
)

// Sharder is an immutable shard→home assignment. Build one with
// NewSharder; HomeOf and ShardOf are alloc-free and safe for
// concurrent use.
type Sharder struct {
	bits     int // log2(shards)
	shards   int
	stations []wire.StationID // sorted copy of the membership
	assign   []wire.StationID // shard index → home station
}

// hashShardStation scores a (shard, station) pair for rendezvous
// hashing — splitmix64-style finalizer over the packed pair.
func hashShardStation(shard int, st wire.StationID) uint64 {
	x := uint64(shard)*0x9e3779b97f4a7c15 ^ uint64(st)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewSharder builds the assignment table for the given shard count
// (rounded up to a power of two, min 1) over the station set. It
// panics on an empty membership: a cluster with no homes cannot
// place anything.
func NewSharder(shards int, stations []wire.StationID) *Sharder {
	if len(stations) == 0 {
		panic("placement: NewSharder with no stations")
	}
	if shards < 1 {
		shards = 1
	}
	// Round up to a power of two so the shard index is a pure bit
	// extraction from the ID.
	n := 1 << bits.Len(uint(shards-1))
	members := make([]wire.StationID, len(stations))
	copy(members, stations)
	// Deterministic tie-break order (lowest station wins equal scores)
	// regardless of the caller's slice order.
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && members[j] < members[j-1]; j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	s := &Sharder{
		bits:     bits.Len(uint(n)) - 1,
		shards:   n,
		stations: members,
		assign:   make([]wire.StationID, n),
	}
	for shard := 0; shard < n; shard++ {
		best := members[0]
		bestScore := hashShardStation(shard, members[0])
		for _, st := range members[1:] {
			if sc := hashShardStation(shard, st); sc > bestScore {
				best, bestScore = st, sc
			}
		}
		s.assign[shard] = best
	}
	return s
}

// Shards returns the (power-of-two) shard count.
func (s *Sharder) Shards() int { return s.shards }

// ShardOf extracts the shard index from an object ID: the top
// log2(shards) bits of the high word.
func (s *Sharder) ShardOf(id oid.ID) int {
	if s.bits == 0 {
		return 0
	}
	return int(id.Hi >> (64 - uint(s.bits)))
}

// HomeOf returns the home station for an object.
func (s *Sharder) HomeOf(id oid.ID) wire.StationID {
	return s.assign[s.ShardOf(id)]
}

// Home returns the home station for a shard index.
func (s *Sharder) Home(shard int) wire.StationID {
	return s.assign[shard]
}

// Prefix returns the ID prefix covering exactly the objects of one
// shard — the match key for an aggregated switch rule.
func (s *Sharder) Prefix(shard int) oid.Prefix {
	if shard < 0 || shard >= s.shards {
		panic(fmt.Sprintf("placement: shard %d out of range [0,%d)", shard, s.shards))
	}
	var id oid.ID
	if s.bits > 0 {
		id.Hi = uint64(shard) << (64 - uint(s.bits))
	}
	return oid.MakePrefix(id, s.bits)
}

// Assignments returns home station → shard indexes it owns, for
// balance reporting and directory pre-sizing.
func (s *Sharder) Assignments() map[wire.StationID][]int {
	m := make(map[wire.StationID][]int, len(s.stations))
	for shard, st := range s.assign {
		m[st] = append(m[st], shard)
	}
	return m
}
