// Package workload is the deterministic load-generation subsystem: it
// drives a simulated cluster with open-loop arrival processes (fixed
// rate, Poisson), key-popularity models (uniform, Zipf) and operation
// mixes, and records latency
// free of coordinated omission — every sample is measured from the
// operation's *intended* start time, so a stalled system cannot hide
// its own tail by slowing the generator down.
//
// Everything runs on the netsim virtual clock and draws randomness
// from seeded sources, so two runs with the same seed produce the
// same operation schedule, the same histogram buckets, and the same
// report bytes.
package workload

import (
	"fmt"

	"repro/internal/netsim"
)

// OpKind is the type of one generated operation.
type OpKind uint8

// Operation kinds.
const (
	// OpRead reads a small range through a reference (bus-style load).
	OpRead OpKind = iota
	// OpWrite writes a small range through a reference (coherent store).
	OpWrite
	// OpAcquireRelease takes an object exclusively and releases it.
	OpAcquireRelease
	// OpInvoke runs the no-op code object against the key's data
	// object, exercising placement and the RPC plane.
	OpInvoke

	numOpKinds
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAcquireRelease:
		return "acquire_release"
	case OpInvoke:
		return "invoke"
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Op is one generated operation. Intended is the arrival-process
// timestamp the operation *should* have started at; latency is always
// measured against it, even when the operation sat in the runner's
// backlog first (the coordinated-omission-free core of the package).
type Op struct {
	Index    uint64
	Kind     OpKind
	Key      int
	Cold     bool
	Intended netsim.Time
}

// Mix is the operation mix in integer percent shares (they need not
// sum to 100 — shares are relative). A zero Mix means the default
// 80/14/4/2 read/write/acquire-release/invoke split. ColdFrac is the
// probability an op targets a never-before-discovered object,
// exercising the cold discovery path.
type Mix struct {
	ReadPct           int     `json:"read_pct"`
	WritePct          int     `json:"write_pct"`
	AcquireReleasePct int     `json:"acquire_release_pct"`
	InvokePct         int     `json:"invoke_pct"`
	ColdFrac          float64 `json:"cold_frac"`
}

func (m *Mix) fill() {
	if m.ReadPct+m.WritePct+m.AcquireReleasePct+m.InvokePct == 0 {
		m.ReadPct, m.WritePct, m.AcquireReleasePct, m.InvokePct = 80, 14, 4, 2
	}
}

// Counters tallies runner activity inside the measure window. The
// uint64 fields flatten into a telemetry.Registry under the
// "workload" prefix.
type Counters struct {
	OpsGenerated uint64
	OpsIssued    uint64
	OpsQueued    uint64
	OpsCompleted uint64
	OpsFailed    uint64
	Reads        uint64
	Writes       uint64
	AcqRels      uint64
	Invokes      uint64
	ColdOps      uint64
}
