// Package model implements the paper's §2 motivating workload: sparse
// personalized ML models whose serving cost is dominated by
// deserializing and loading them into memory ("as much as 70% of the
// processing time").
//
// The same model exists in two encodings:
//
//   - a heap encoding (SparseModel) that must be serialized with
//     package serde to cross a machine boundary and deserialized —
//     allocation plus pointer fixup — on arrival (the RPC baseline);
//
//   - an object-space encoding (BuildObject/View) laid out inside a
//     global-address-space object with invariant pointers, which moves
//     between hosts with a byte-level copy and is usable immediately
//     (§3.1 "alleviating 100% of the loading overhead").
//
// A model is a sparse embedding table: feature ID → weight vector,
// plus an output weight vector. Inference scores an activation (a set
// of feature IDs) by accumulating dot(embedding[f], output).
package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/serde"
)

// Bucket is one sparse embedding row.
type Bucket struct {
	Feature uint64
	Weights []float32
}

// SparseModel is the heap (pointer-rich) encoding.
type SparseModel struct {
	Name    string
	Dim     int
	Buckets []Bucket // sorted by Feature
	Output  []float32
}

// NewRandom builds a reproducible random model with numBuckets
// embedding rows of the given dimension.
func NewRandom(seed int64, numBuckets, dim int) *SparseModel {
	rng := rand.New(rand.NewSource(seed))
	m := &SparseModel{
		Name:    fmt.Sprintf("sparse-%d-%dx%d", seed, numBuckets, dim),
		Dim:     dim,
		Buckets: make([]Bucket, numBuckets),
		Output:  make([]float32, dim),
	}
	used := make(map[uint64]bool, numBuckets)
	for i := range m.Buckets {
		f := rng.Uint64() % uint64(numBuckets*16)
		for used[f] {
			f = rng.Uint64() % uint64(numBuckets*16)
		}
		used[f] = true
		w := make([]float32, dim)
		for j := range w {
			w[j] = rng.Float32()*2 - 1
		}
		m.Buckets[i] = Bucket{Feature: f, Weights: w}
	}
	sort.Slice(m.Buckets, func(i, j int) bool { return m.Buckets[i].Feature < m.Buckets[j].Feature })
	for j := range m.Output {
		m.Output[j] = rng.Float32()*2 - 1
	}
	return m
}

// Features returns the model's feature IDs (sorted).
func (m *SparseModel) Features() []uint64 {
	out := make([]uint64, len(m.Buckets))
	for i, b := range m.Buckets {
		out[i] = b.Feature
	}
	return out
}

// lookup finds the bucket for a feature by binary search.
func (m *SparseModel) lookup(f uint64) *Bucket {
	i := sort.Search(len(m.Buckets), func(i int) bool { return m.Buckets[i].Feature >= f })
	if i < len(m.Buckets) && m.Buckets[i].Feature == f {
		return &m.Buckets[i]
	}
	return nil
}

// Infer scores an activation: sum over present features of
// dot(embedding, output), accumulated in float64.
func (m *SparseModel) Infer(features []uint64) float64 {
	var acc float64
	for _, f := range features {
		b := m.lookup(f)
		if b == nil {
			continue
		}
		for j := 0; j < m.Dim; j++ {
			acc += float64(b.Weights[j]) * float64(m.Output[j])
		}
	}
	return acc
}

// Marshal serializes the model with the baseline encoder.
func (m *SparseModel) Marshal() []byte {
	e := serde.NewEncoder(64 + len(m.Buckets)*(12+4*m.Dim) + 4*m.Dim)
	e.PutString(m.Name)
	e.PutUvarint(uint64(m.Dim))
	e.PutFloat32s(m.Output)
	e.PutUvarint(uint64(len(m.Buckets)))
	for _, b := range m.Buckets {
		e.PutUvarint(b.Feature)
		e.PutFloat32s(b.Weights)
	}
	return e.Bytes()
}

// Unmarshal reconstructs a model from Marshal's output: this is the
// allocation-plus-pointer-fixup load path the paper costs out.
func Unmarshal(raw []byte) (*SparseModel, error) {
	d := serde.NewDecoder(raw)
	m := &SparseModel{}
	m.Name = d.String()
	m.Dim = int(d.Uvarint())
	m.Output = d.Float32s()
	n := int(d.Uvarint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > 1<<28 {
		return nil, fmt.Errorf("model: absurd bucket count %d", n)
	}
	m.Buckets = make([]Bucket, n)
	for i := 0; i < n; i++ {
		m.Buckets[i].Feature = d.Uvarint()
		m.Buckets[i].Weights = d.Float32s()
		if d.Err() != nil {
			return nil, d.Err()
		}
	}
	return m, d.Err()
}

// --- object-space encoding ---

// Object layout (all offsets relative to the object):
//
//	root record (8-byte aligned):
//	  +0  dim        uint64
//	  +8  numBuckets uint64
//	  +16 ptr        bucket table
//	  +24 ptr        output weights
//	  +32 name       (length-prefixed bytes)
//	bucket table: numBuckets × 16 bytes { feature uint64, ptr weights }
//	weights: dim × 4 bytes (float32 bits), 8-byte aligned
//
// The root record's offset is stored at a well-known slot so a loader
// can find it: the first 8 bytes after the heap base.
const rootSlotSize = 8

var errNotModel = errors.New("model: object does not contain a model")

// ObjectSize returns the object size needed for a model.
func ObjectSize(m *SparseModel) int {
	need := object.HeaderSize + object.FOTEntrySize*object.DefaultFOTCap +
		rootSlotSize +
		48 + len(m.Name) + 16 + // root record + name + padding
		len(m.Buckets)*16 + // bucket table
		(len(m.Buckets)+1)*(4*m.Dim+8) + // weight arrays + alignment
		256
	return need
}

// BuildObject lays the model out inside a fresh object with invariant
// intra-object pointers.
func BuildObject(id oid.ID, m *SparseModel) (*object.Object, error) {
	o, err := object.New(id, ObjectSize(m), 0)
	if err != nil {
		return nil, err
	}
	if err := buildInto(o, m); err != nil {
		return nil, err
	}
	return o, nil
}

// buildInto writes the model into o, recording the root record offset
// in the slot at the heap base.
func buildInto(o *object.Object, m *SparseModel) error {
	slot, err := o.Alloc(rootSlotSize, 8)
	if err != nil {
		return err
	}
	root, err := o.Alloc(32, 8)
	if err != nil {
		return err
	}
	if err := o.PutUint64(slot, root); err != nil {
		return err
	}
	if err := o.PutUint64(root, uint64(m.Dim)); err != nil {
		return err
	}
	if err := o.PutUint64(root+8, uint64(len(m.Buckets))); err != nil {
		return err
	}
	if _, err := o.AllocBytes([]byte(m.Name)); err != nil {
		return err
	}

	// Output weights.
	outOff, err := writeWeights(o, m.Output)
	if err != nil {
		return err
	}
	if err := o.PutPtr(root+24, object.MustPtr(0, outOff)); err != nil {
		return err
	}

	// Bucket table.
	table, err := o.Alloc(16*len(m.Buckets), 8)
	if err != nil {
		return err
	}
	if err := o.PutPtr(root+16, object.MustPtr(0, table)); err != nil {
		return err
	}
	for i, b := range m.Buckets {
		wOff, err := writeWeights(o, b.Weights)
		if err != nil {
			return err
		}
		ent := table + uint64(16*i)
		if err := o.PutUint64(ent, b.Feature); err != nil {
			return err
		}
		if err := o.PutPtr(ent+8, object.MustPtr(0, wOff)); err != nil {
			return err
		}
	}
	return nil
}

func writeWeights(o *object.Object, w []float32) (uint64, error) {
	off, err := o.Alloc(4*len(w), 8)
	if err != nil {
		return 0, err
	}
	for i, v := range w {
		if err := o.PutUint32(off+uint64(4*i), math.Float32bits(v)); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// View is a zero-copy reader over an object-encoded model: it chases
// the encoded pointers directly, with no load step beyond header
// validation.
type View struct {
	obj        *object.Object
	dim        int
	numBuckets int
	table      uint64
	output     uint64
}

// LoadView opens an object-encoded model. This is the entire "load"
// step of the object-space path.
func LoadView(o *object.Object) (*View, error) {
	slot := o.HeapBase()
	root, err := o.Uint64(slot)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNotModel, err)
	}
	dim, err := o.Uint64(root)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNotModel, err)
	}
	nb, err := o.Uint64(root + 8)
	if err != nil {
		return nil, err
	}
	tp, err := o.GetPtr(root + 16)
	if err != nil {
		return nil, err
	}
	op, err := o.GetPtr(root + 24)
	if err != nil {
		return nil, err
	}
	if dim == 0 || dim > 1<<20 || tp.IsNull() || op.IsNull() {
		return nil, errNotModel
	}
	v := &View{
		obj:        o,
		dim:        int(dim),
		numBuckets: int(nb),
		table:      tp.Offset(),
		output:     op.Offset(),
	}
	// Validate bounds once so Infer can read unchecked.
	if _, err := o.ReadAt(v.table, 16*v.numBuckets); err != nil {
		return nil, err
	}
	if _, err := o.ReadAt(v.output, 4*v.dim); err != nil {
		return nil, err
	}
	return v, nil
}

// Dim returns the embedding dimension.
func (v *View) Dim() int { return v.dim }

// NumBuckets returns the number of embedding rows.
func (v *View) NumBuckets() int { return v.numBuckets }

// lookup binary-searches the in-object bucket table.
func (v *View) lookup(f uint64) (uint64, bool) {
	raw := v.obj.Bytes()
	lo, hi := 0, v.numBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		ent := v.table + uint64(16*mid)
		feat := le64(raw[ent:])
		switch {
		case feat < f:
			lo = mid + 1
		case feat > f:
			hi = mid
		default:
			p := object.Ptr(le64(raw[ent+8:]))
			return p.Offset(), true
		}
	}
	return 0, false
}

// Infer scores an activation identically to SparseModel.Infer but
// reading weights straight out of the object bytes.
func (v *View) Infer(features []uint64) float64 {
	raw := v.obj.Bytes()
	var acc float64
	for _, f := range features {
		wOff, ok := v.lookup(f)
		if !ok {
			continue
		}
		for j := 0; j < v.dim; j++ {
			w := math.Float32frombits(le32(raw[wOff+uint64(4*j):]))
			out := math.Float32frombits(le32(raw[v.output+uint64(4*j):]))
			acc += float64(w) * float64(out)
		}
	}
	return acc
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
