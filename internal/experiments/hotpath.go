package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/wire"
	"repro/internal/workload"
)

// E15 (hotpath): the zero-alloc batched hot path, measured. Two
// halves:
//
//  1. Allocation pins — testing.AllocsPerRun per layer, from a raw
//     frame encode up to a full remote coherence op over the sharded
//     scheme. The end-to-end read and write rows carry a hard budget
//     of ≤2 allocs/op (the response/data copy is the only mandatory
//     allocation; everything else comes from free lists).
//  2. Knee sweep — the E9 saturation sweep run twice at the SAME
//     simulated link speed with a nonzero per-wakeup host receive
//     cost, once with per-frame delivery and once with batched
//     (doorbell-coalesced) delivery. Batching amortizes the wakeup
//     cost across every frame that lands while a doorbell is pending,
//     so the saturation knee moves right.

// HotpathConfig tunes E15.
type HotpathConfig struct {
	// Seed drives the cluster layout and the sweep generators.
	Seed int64
	// Smoke shrinks the sweep for CI (shorter windows, fewer runs).
	Smoke bool
	// AllocRuns is the per-row AllocsPerRun sample count
	// (default 200; smoke 50).
	AllocRuns int
	// WallNanos reads a monotonic wall clock in nanoseconds for the
	// ns/op columns (injected so this package stays off the runtime
	// clock; nil reports 0).
	WallNanos func() int64
}

func (c *HotpathConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.AllocRuns == 0 {
		if c.Smoke {
			c.AllocRuns = 50
		} else {
			c.AllocRuns = 200
		}
	}
}

// HotpathAllocRow is one layer's allocation measurement. Budget < 0
// means the row is informational (no gate).
type HotpathAllocRow struct {
	Layer       string  `json:"layer"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NsPerOp is wall-clock time per op (simulator throughput, not
	// virtual latency); 0 when no WallNanos reader was injected.
	NsPerOp float64 `json:"wall_ns_per_op"`
	Budget  float64 `json:"budget_allocs_per_op"`
	Pass    bool    `json:"pass"`
}

// HotpathReport is the E15 artifact (BENCH_hotpath.json). GeneratedAt
// is stamped by the caller after the run; the sweep halves are
// virtual-time deterministic, the alloc/ns columns are host-machine
// measurements.
type HotpathReport struct {
	workload.ReportHeader
	Smoke bool `json:"smoke"`

	Allocs []HotpathAllocRow `json:"allocs"`

	// Knee sweep: identical ladder, link speed, and receive cost on
	// both sides; only the delivery mode differs.
	LinkBitsPerSec int64                `json:"link_bits_per_sec"`
	HostRxCostUS   float64              `json:"host_rx_cost_us"`
	Unbatched      workload.SchemeSweep `json:"unbatched"`
	Batched        workload.SchemeSweep `json:"batched"`
	// KneeMovedRight: the batched knee sits strictly right of the
	// unbatched knee on the shared rate ladder.
	KneeMovedRight bool `json:"knee_moved_right"`
}

// hotHarness drives single remote coherence ops over a sharded
// cluster with every callback pre-bound, so the measured loop's only
// allocations are the stack under test.
type hotHarness struct {
	cl     *core.Cluster
	reader *core.Node
	obj    oid.ID
	off    uint64
	wdata  []byte

	done bool
	err  error
	got  []byte

	onRead  func([]byte, error)
	onWrite func(error)
	onAcq   func(*object.Object, error)
	onRel   func(error)
}

// hotObjSize keeps acquire transfers one-fragment small.
const hotObjSize = 1024

func newHotHarness(seed int64) (*hotHarness, error) {
	cl, err := core.NewCluster(core.Config{
		Seed:     seed,
		NumNodes: 3,
		Scheme:   core.SchemeSharded,
	})
	if err != nil {
		return nil, err
	}
	h := &hotHarness{
		cl:     cl,
		reader: cl.Node(0),
		off:    object.HeaderSize + object.FOTEntrySize*4,
		wdata:  make([]byte, 64),
	}
	for i := range h.wdata {
		h.wdata[i] = byte(i)
	}
	// One object sharded-homed on a non-reader node: every op in the
	// measured loop is a genuine remote round trip.
	for _, n := range cl.Nodes[1:] {
		if id, ok := cl.NewIDHomedAt(n.Station); ok {
			o, err := object.New(id, hotObjSize, 4)
			if err != nil {
				return nil, err
			}
			if err := n.AdoptObjectLite(o); err != nil {
				return nil, err
			}
			h.obj = id
			break
		}
	}
	if h.obj == (oid.ID{}) {
		return nil, fmt.Errorf("hotpath: no non-reader station owns a shard")
	}
	h.onRead = func(b []byte, err error) { h.got, h.err, h.done = b, err, true }
	h.onWrite = func(err error) { h.err, h.done = err, true }
	h.onAcq = func(_ *object.Object, err error) { h.err, h.done = err, true }
	h.onRel = func(err error) { h.err, h.done = err, true }
	cl.Run()
	return h, nil
}

// step runs the simulator until the pending op completes.
func (h *hotHarness) step(what string) {
	h.cl.Run()
	if !h.done {
		h.err = fmt.Errorf("hotpath: %s did not complete", what)
	}
	h.done = false
}

func (h *hotHarness) readOnce() {
	h.reader.Coherence.ReadAtCB(h.obj, h.off, 64, h.onRead)
	h.step("read")
}

func (h *hotHarness) writeOnce() {
	h.reader.Coherence.WriteAtCB(h.obj, h.off, h.wdata, h.onWrite)
	h.step("write")
}

func (h *hotHarness) acqRelOnce() {
	h.reader.Coherence.AcquireSharedCB(h.obj, h.onAcq)
	h.step("acquire")
	h.reader.Coherence.ReleaseCB(h.obj, h.onRel)
	h.step("release")
}

// measureRow samples one layer: allocs via AllocsPerRun (which pins
// the goroutine and averages over runs) and wall ns/op over the same
// number of iterations.
func measureRow(layer string, runs int, budget float64,
	wall func() int64, fn func()) HotpathAllocRow {
	for i := 0; i < 32; i++ {
		fn() // warm free lists, map buckets, event-heap capacity
	}
	row := HotpathAllocRow{
		Layer:       layer,
		AllocsPerOp: testing.AllocsPerRun(runs, fn),
		Budget:      budget,
	}
	if wall != nil {
		start := wall()
		for i := 0; i < runs; i++ {
			fn()
		}
		row.NsPerOp = float64(wall()-start) / float64(runs)
	}
	row.Pass = budget < 0 || row.AllocsPerOp <= budget
	return row
}

// hotpathAllocs builds the per-layer allocation table.
func hotpathAllocs(cfg HotpathConfig) ([]HotpathAllocRow, error) {
	var rows []HotpathAllocRow

	// Layer 1: frame encode into a pooled buffer and back to the pool.
	hdr := wire.Header{Type: wire.MsgMem, Src: 1, Dst: 2}
	payload := make([]byte, 64)
	rows = append(rows, measureRow("dataplane: encode+release", cfg.AllocRuns, 0,
		cfg.WallNanos, func() {
			buf, err := dataplane.EncodeFrame(&hdr, payload)
			if err != nil {
				panic(err)
			}
			buf.Release()
		}))

	// Layer 2: mux dispatch of a decoded frame, tracing unsampled.
	mux := dataplane.NewMux()
	sink := 0
	mux.Handle(wire.MsgMem, func(h *wire.Header, p []byte) bool { sink++; return true })
	fr, err := wire.Encode(&hdr, payload)
	if err != nil {
		return nil, err
	}
	var rxh wire.Header
	rows = append(rows, measureRow("dataplane: decode+dispatch", cfg.AllocRuns, 0,
		cfg.WallNanos, func() {
			if err := rxh.DecodeFrom(fr); err != nil {
				panic(err)
			}
			mux.Dispatch(&rxh, wire.Payload(fr))
		}))

	// Layers 3-5: full remote coherence ops over the sharded scheme —
	// transport, discovery, memproto, and the simulator all on the
	// path. Read and write are the gated rows: ≤2 allocs/op
	// (the data copy handed to the caller, plus amortized map-bucket
	// noise). Acquire+release moves whole objects and is reported
	// without a gate.
	h, err := newHotHarness(cfg.Seed)
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		measureRow("coherence: remote read (sharded)", cfg.AllocRuns, 2,
			cfg.WallNanos, h.readOnce),
		measureRow("coherence: remote write (sharded)", cfg.AllocRuns, 2,
			cfg.WallNanos, h.writeOnce),
		measureRow("coherence: acquire+release (sharded)", cfg.AllocRuns, -1,
			cfg.WallNanos, h.acqRelOnce),
	)
	if h.err != nil {
		return nil, h.err
	}
	return rows, nil
}

// Sweep geometry: a fast link (so serialization is not the binding
// constraint) with a deliberately expensive per-wakeup receive cost.
// Unbatched, the driver's receive context caps out at
// 1/hotpathRxCost wakeups per second; batched, arrivals landing
// behind a pending doorbell ride along free and the cap disappears.
const (
	hotpathLinkBPS = 1_000_000_000
	hotpathRxCost  = 20 * netsim.Microsecond
)

// hotpathSweep runs the E9-style ladder in one delivery mode.
func hotpathSweep(cfg HotpathConfig, batched bool) (workload.SchemeSweep, error) {
	sw := workload.SweepConfig{
		Seed:           cfg.Seed,
		Schemes:        []core.Scheme{core.SchemeE2E},
		Arrival:        workload.ArrivalConfig{Kind: workload.ArrivalPoisson},
		Mix:            workload.Mix{ColdFrac: 0.02},
		Keys:           workload.KeyConfig{Dist: workload.KeyZipf, Population: 48},
		NumNodes:       3,
		MaxOutstanding: 512,
		LinkBitsPerSec: hotpathLinkBPS,
		HostRxCost:     hotpathRxCost,
		BatchDelivery:  batched,
		Target:         workload.ClusterConfig{WarmPool: 24, ColdPool: 128},
	}
	if cfg.Smoke {
		sw.Rates = []float64{8_000, 16_000, 32_000, 64_000}
		sw.Warmup = 5 * netsim.Millisecond
		sw.Measure = 15 * netsim.Millisecond
	} else {
		sw.Rates = []float64{8_000, 16_000, 32_000, 64_000, 96_000, 128_000}
		sw.Warmup = 5 * netsim.Millisecond
		sw.Measure = 30 * netsim.Millisecond
		sw.Target.ColdPool = 256
	}
	rep, err := workload.Sweep(sw)
	if err != nil {
		return workload.SchemeSweep{}, err
	}
	return rep.Schemes[0], nil
}

// Hotpath runs E15: the allocation table, then the batched-vs-
// unbatched knee sweep at identical link speed.
func Hotpath(cfg HotpathConfig) (*HotpathReport, error) {
	cfg.fill()
	rep := &HotpathReport{
		ReportHeader:   workload.ReportHeader{SchemaVersion: 1, Seed: cfg.Seed},
		Smoke:          cfg.Smoke,
		LinkBitsPerSec: hotpathLinkBPS,
		HostRxCostUS:   hotpathRxCost.Microseconds(),
	}
	var err error
	if rep.Allocs, err = hotpathAllocs(cfg); err != nil {
		return nil, err
	}
	if rep.Unbatched, err = hotpathSweep(cfg, false); err != nil {
		return nil, err
	}
	if rep.Batched, err = hotpathSweep(cfg, true); err != nil {
		return nil, err
	}
	rep.KneeMovedRight = rep.Batched.Knee.Index > rep.Unbatched.Knee.Index
	return rep, nil
}
