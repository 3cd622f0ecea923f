// Package crdt implements convergent replicated data types — the
// "auto-merging progressive objects like CRDTs" the paper plans to
// support during data movement (§5). When two replicas of an object
// diverge (e.g., both sides updated a counter while a copy was cached
// remotely), merging their states on movement converges them without
// coordination.
//
// One type is provided, the one ablation A4 runs: a grow-only counter
// (G-Counter). It marshals through package serde so it can live inside
// a global-address-space object.
package crdt

import (
	"fmt"
	"sort"

	"repro/internal/serde"
	"repro/internal/wire"
)

// GCounter is a grow-only counter: one monotone slot per station;
// value = sum; merge = slot-wise max.
type GCounter struct {
	slots map[wire.StationID]uint64
}

// NewGCounter creates an empty counter.
func NewGCounter() *GCounter {
	return &GCounter{slots: make(map[wire.StationID]uint64)}
}

// Inc adds n at station st.
func (c *GCounter) Inc(st wire.StationID, n uint64) {
	c.slots[st] += n
}

// Value returns the counter total.
func (c *GCounter) Value() uint64 {
	var sum uint64
	for _, v := range c.slots {
		sum += v
	}
	return sum
}

// Merge folds other into c (slot-wise max); c converges toward the
// join of both histories.
func (c *GCounter) Merge(other *GCounter) {
	for st, v := range other.slots {
		if v > c.slots[st] {
			c.slots[st] = v
		}
	}
}

// Marshal encodes the counter.
func (c *GCounter) Marshal() []byte {
	sts := make([]wire.StationID, 0, len(c.slots))
	for st := range c.slots {
		sts = append(sts, st)
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i] < sts[j] })
	e := serde.NewEncoder(16 * len(sts))
	e.PutUvarint(uint64(len(sts)))
	for _, st := range sts {
		e.PutUint64(uint64(st))
		e.PutUint64(c.slots[st])
	}
	return e.Bytes()
}

// UnmarshalGCounter decodes a counter.
func UnmarshalGCounter(raw []byte) (*GCounter, error) {
	d := serde.NewDecoder(raw)
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("crdt: absurd slot count %d", n)
	}
	c := NewGCounter()
	for i := uint64(0); i < n; i++ {
		st := wire.StationID(d.Uint64())
		v := d.Uint64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		c.slots[st] = v
	}
	return c, nil
}
