// Package experiments regenerates every table and figure in the
// paper's evaluation (§4 Figures 2 and 3, the §3.2 switch-capacity
// numbers, the Figure 1 rendezvous strategies, and the §2/§3.1
// serialization claims), plus the ablations and E7–E15 listed in
// DESIGN.md and EXPERIMENTS.md. Experiments is the one table of them:
// each entry declares its command name, summary, `all` membership,
// report path and flags, and a run that sweeps its points (sweep),
// prints its tables and notes (table, whose row types name their
// columns beside their cells), sets its report and returns the verdict
// of its pass criterion. cmd/gaspbench is that table's command line;
// bench_test.go wraps the entry points it names in testing.B
// benchmarks.
package experiments

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/workload"
)

// CPU cost model for the serialization-sensitive paths, applied as
// virtual-time delays so network and compute costs compose on one
// clock. Rates are derived from the measured Go benchmarks in
// internal/model (order-of-magnitude: deserialization with allocation
// and pointer fixup runs ~4× slower than flat byte copies; see
// EXPERIMENTS.md).
const (
	// SerializeBytesPerSec is the heap→wire marshal rate.
	SerializeBytesPerSec = 2_000_000_000
	// DeserializeBytesPerSec is the wire→heap rate (allocation +
	// pointer fixup dominate, §2's 70% claim).
	DeserializeBytesPerSec = 500_000_000
	// ByteCopyBytesPerSec is the object-space load rate (memcpy).
	ByteCopyBytesPerSec = 10_000_000_000
)

// The §4 access workload of Figures 2 and 3, which realtest's
// TestLoopbackE1 also runs over real sockets: a pool of pre-created
// 4 KiB objects, each access a 64-byte read.
const (
	accessPool       = 64
	accessObjectSize = 4096
	accessReadBytes  = 64
)

// cpuDelay converts a byte count and rate into virtual time.
func cpuDelay(bytes int, rate int64) netsim.Duration {
	return netsim.Duration(int64(bytes) * int64(netsim.Second) / rate)
}

// us converts virtual duration to microseconds.
func us(d netsim.Duration) float64 { return d.Microseconds() }

// warmReads has driver read length bytes of each object in turn, so
// its resolver has every destination cached before measurement.
func warmReads(driver *core.Node, objs []*object.Object, length int) error {
	return workload.RunToCompletion(driver.Cluster(), len(objs), 0, func(i int, next func()) {
		driver.Coherence.ReadAt(objs[i].ID(), 0, length).Then(func(_ []byte, err error) {
			if err == nil {
				next()
			}
		})
	})
}
