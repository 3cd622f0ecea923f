package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/oid"
)

// SerializationRow compares the two load paths for one model size:
// the §2 claim ("as much as 70% of the processing time ... is spent
// deserializing and loading") against the §3.1 claim ("a byte-level
// copy, alleviating 100% of the loading overhead").
type SerializationRow struct {
	Buckets      int
	Dim          int
	SerializedKB float64
	ObjectKB     float64

	// DeserializeUS is the wall-clock heap rebuild (alloc + fixup).
	DeserializeUS float64
	// ByteCopyUS is the wall-clock in-place adoption of the received
	// bytes: header validation + view open. (The transfer itself is
	// common to both paths and excluded from both.)
	ByteCopyUS float64
	// InferUS is the per-request inference compute (identical work).
	InferUS float64

	// LoadFraction* = load / (load + inference): the share of request
	// time spent loading, per path.
	LoadFractionBaseline float64
	LoadFractionOurs     float64
	// Speedup is DeserializeUS / ByteCopyUS.
	Speedup float64
}

func (r SerializationRow) cells() []any {
	return []any{"model", fmt.Sprintf("%dx%d", r.Buckets, r.Dim), "ser_kb", r.SerializedKB,
		"obj_kb", r.ObjectKB, "deser_us", r.DeserializeUS, "adopt_us", fixed(2, r.ByteCopyUS),
		"infer_us", r.InferUS, "loadfrac_baseline", fixed(2, r.LoadFractionBaseline),
		"loadfrac_ours", fixed(2, r.LoadFractionOurs), "speedup", r.Speedup}
}

// SerializationConfig parameterizes the sweep.
type SerializationConfig struct {
	Seed  int64
	Sizes []ModelShape
	// Repeats averages wall-clock timings.
	Repeats int
}

// serializationActivationLen is the most features one inference reads.
const serializationActivationLen = 64

// ModelShape is one sweep point.
type ModelShape struct {
	Buckets int
	Dim     int
}

// Serialization measures both load paths in wall-clock time. Unlike
// the latency figures (which run on virtual time), this experiment is
// about real CPU work, so it times real executions.
func Serialization(cfg SerializationConfig) ([]SerializationRow, error) {
	gen := oid.NewSeededGenerator(cfg.Seed)
	return sweep(cfg.Sizes, func(shape ModelShape) (SerializationRow, error) {
		m := model.NewRandom(cfg.Seed, shape.Buckets, shape.Dim)
		raw := m.Marshal()
		obj, err := model.BuildObject(gen.New(), m)
		if err != nil {
			return SerializationRow{}, err
		}
		objBytes := obj.CloneBytes()
		act := m.Features()
		if len(act) > serializationActivationLen {
			act = act[:serializationActivationLen]
		}

		var wantScore float64
		deser := timeIt(cfg.Repeats, func() {
			mm, err := model.Unmarshal(raw)
			if err != nil {
				panic(err)
			}
			wantScore = mm.Infer(nil) // keep mm alive; zero work
		})
		_ = wantScore

		// Both paths pay the wire transfer (the raw bytes arriving);
		// what differs is the work after receipt. The baseline
		// rebuilds the heap; the object path adopts the received
		// buffer in place — header validation plus opening the view,
		// with no allocation walk or pointer fixup (§3.1: movement
		// "with merely a byte-level copy ... leaving only data
		// transfer costs, which are fundamental").
		bytecopy := timeIt(cfg.Repeats, func() {
			o, err := object.FromBytes(obj.ID(), objBytes)
			if err != nil {
				panic(err)
			}
			if _, err := model.LoadView(o); err != nil {
				panic(err)
			}
		})

		view, err := model.LoadView(obj)
		if err != nil {
			return SerializationRow{}, err
		}
		infer := timeIt(cfg.Repeats, func() {
			_ = view.Infer(act)
		})

		row := SerializationRow{
			Buckets:       shape.Buckets,
			Dim:           shape.Dim,
			SerializedKB:  float64(len(raw)) / 1024,
			ObjectKB:      float64(len(objBytes)) / 1024,
			DeserializeUS: deser,
			ByteCopyUS:    bytecopy,
			InferUS:       infer,
		}
		row.LoadFractionBaseline = deser / (deser + infer)
		row.LoadFractionOurs = bytecopy / (bytecopy + infer)
		if bytecopy > 0 {
			row.Speedup = deser / bytecopy
		}
		return row, nil
	})
}

// timeIt returns the mean wall-clock microseconds of fn over repeats,
// with nanosecond resolution (in-place loads are sub-microsecond).
func timeIt(repeats int, fn func()) float64 {
	fn() // warm up
	start := wallNanos()
	for i := 0; i < repeats; i++ {
		fn()
	}
	return float64(wallNanos()-start) / 1000 / float64(repeats)
}
