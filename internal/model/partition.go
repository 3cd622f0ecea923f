package model

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/oid"
)

// Partitioned is a sparse global model split across objects: a root
// object holds a partition table whose entries are cross-object
// references (FOT-encoded) to shard objects, each a self-contained
// model object covering a contiguous feature range. This is the "a
// partition of a sparse global model, located on cloud resource Bob"
// structure of §2, and the cross-object reference graph is exactly
// what the reachability prefetcher (§3.1) walks.
type Partitioned struct {
	Root   *object.Object
	Shards []*object.Object
}

// Root record layout (offset stored in the first 8 bytes after the
// heap base, like BuildObject):
//
//	+0 numShards uint64
//	+8 entries: numShards × 24 { minFeature u64, maxFeature u64, ptr }
//
// where ptr is a cross-object pointer to the shard (offset 0).

// BuildPartitioned splits m into nShards shard objects by contiguous
// feature ranges and builds the root object referencing them.
func BuildPartitioned(g *oid.Generator, m *SparseModel, nShards int) (*Partitioned, error) {
	if nShards <= 0 || nShards > len(m.Buckets) {
		return nil, fmt.Errorf("model: cannot split %d buckets into %d shards", len(m.Buckets), nShards)
	}
	p := &Partitioned{}
	per := (len(m.Buckets) + nShards - 1) / nShards
	type rng struct {
		min, max uint64
		id       oid.ID
	}
	var ranges []rng
	for i := 0; i < len(m.Buckets); i += per {
		end := i + per
		if end > len(m.Buckets) {
			end = len(m.Buckets)
		}
		sub := &SparseModel{
			Name:    fmt.Sprintf("%s/shard%d", m.Name, len(p.Shards)),
			Dim:     m.Dim,
			Buckets: m.Buckets[i:end],
			Output:  m.Output,
		}
		shard, err := BuildObject(g.New(), sub)
		if err != nil {
			return nil, err
		}
		p.Shards = append(p.Shards, shard)
		ranges = append(ranges, rng{
			min: m.Buckets[i].Feature,
			max: m.Buckets[end-1].Feature,
			id:  shard.ID(),
		})
	}

	size := object.HeaderSize + object.FOTEntrySize*object.DefaultFOTCap +
		rootSlotSize + 16 + len(ranges)*24 + 64
	root, err := object.New(g.New(), size, 0)
	if err != nil {
		return nil, err
	}
	slot, err := root.Alloc(rootSlotSize, 8)
	if err != nil {
		return nil, err
	}
	rec, err := root.Alloc(8+24*len(ranges), 8)
	if err != nil {
		return nil, err
	}
	if err := root.PutUint64(slot, rec); err != nil {
		return nil, err
	}
	if err := root.PutUint64(rec, uint64(len(ranges))); err != nil {
		return nil, err
	}
	for i, r := range ranges {
		ent := rec + 8 + uint64(24*i)
		if err := root.PutUint64(ent, r.min); err != nil {
			return nil, err
		}
		if err := root.PutUint64(ent+8, r.max); err != nil {
			return nil, err
		}
		if err := root.StoreRef(ent+16, r.id, 0, object.FlagRead); err != nil {
			return nil, err
		}
	}
	p.Root = root
	return p, nil
}

// RootView reads a partition table from a root object.
type RootView struct {
	obj       *object.Object
	rec       uint64
	numShards int
}

// LoadRootView opens a partitioned model's root object.
func LoadRootView(o *object.Object) (*RootView, error) {
	rec, err := o.Uint64(o.HeapBase())
	if err != nil {
		return nil, err
	}
	n, err := o.Uint64(rec)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<20 {
		return nil, fmt.Errorf("model: absurd shard count %d", n)
	}
	if _, err := o.ReadAt(rec+8, int(n)*24); err != nil {
		return nil, err
	}
	return &RootView{obj: o, rec: rec, numShards: int(n)}, nil
}

// NumShards returns the shard count.
func (rv *RootView) NumShards() int { return rv.numShards }

// entry returns shard i's feature range and reference.
func (rv *RootView) entry(i int) (min, max uint64, ref object.Global, err error) {
	ent := rv.rec + 8 + uint64(24*i)
	if min, err = rv.obj.Uint64(ent); err != nil {
		return
	}
	if max, err = rv.obj.Uint64(ent + 8); err != nil {
		return
	}
	ref, err = rv.obj.LoadRef(ent + 16)
	return
}

// ShardFor resolves the shard reference covering a feature.
func (rv *RootView) ShardFor(feature uint64) (object.Global, error) {
	for i := 0; i < rv.numShards; i++ {
		min, max, ref, err := rv.entry(i)
		if err != nil {
			return object.Global{}, err
		}
		if feature >= min && feature <= max {
			return ref, nil
		}
	}
	return object.Global{}, fmt.Errorf("model: no shard covers feature %d", feature)
}

// GroupByShard buckets an activation's features by the shard covering
// each, dropping features outside every shard.
func (rv *RootView) GroupByShard(features []uint64) (map[oid.ID][]uint64, error) {
	out := make(map[oid.ID][]uint64)
	for _, f := range features {
		ref, err := rv.ShardFor(f)
		if err != nil {
			continue
		}
		out[ref.Obj] = append(out[ref.Obj], f)
	}
	return out, nil
}
