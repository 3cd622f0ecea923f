package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/future"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E11 (realbench): the backend-seam payoff measured. The identical
// coherence/discovery/dataplane stack runs twice — once on the
// deterministic simulator, once over real localhost UDP sockets on
// wall-clock time — doing the same work: E1's warm/cold read RTTs.
// The sim-vs-real deltas bound how much of the stack's measured cost
// is protocol (identical on both sides) versus kernel socket path,
// syscalls, and scheduling jitter (real side only). Throughput over
// real sockets is the benchmark's real_rw_closed workload: an
// open-loop pacer on the wall clock measures Go's idle-timer
// granularity, not the stack (bench/README.md, finding 2).
//
// Methodology caveats: realnet numbers are loopback (no wire, no NIC,
// MTU 65507), each node serializes its upcalls on its own lock, and
// Await wakeups add goroutine-scheduling latency to every sample —
// treat real-side absolute values as an upper bound on protocol cost
// over loopback, not a datacenter prediction.

// RealbenchConfig configures E11.
type RealbenchConfig struct {
	// Seed drives population layout.
	Seed int64
	// CPUProfile, when non-empty, writes a pprof CPU profile of the
	// realnet measurement (the hot path: sockets, mux, coherence) to
	// this file.
	CPUProfile string
}

// realbenchAccesses is the RTT sample count per class (warm/cold),
// taken on the access workload of Figures 2 and 3.
const realbenchAccesses = 400

// RealbenchRow is one RTT class measured on both backends (µs).
type RealbenchRow struct {
	Label      string
	SimMeanUS  float64
	SimP99US   float64
	RealMeanUS float64
	RealP99US  float64
}

// DeltaMeanUS is the real-minus-sim mean RTT: the kernel path's toll.
func (r RealbenchRow) DeltaMeanUS() float64 {
	return r.RealMeanUS - r.SimMeanUS
}

// benchSide is one backend's measurements.
type benchSide struct {
	warm, cold *telemetry.Histogram
}

// Realbench runs E11: the same measurement program on both backends.
func Realbench(cfg RealbenchConfig) ([]RealbenchRow, error) {
	sim, err := realbenchSide(core.BackendSim, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("realbench sim side: %w", err)
	}
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	real, err := realbenchSide(core.BackendRealnet, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("realbench realnet side: %w", err)
	}
	return []RealbenchRow{
		{Label: "warm-read", SimMeanUS: sim.warm.Mean(), SimP99US: sim.warm.Quantile(0.99),
			RealMeanUS: real.warm.Mean(), RealP99US: real.warm.Quantile(0.99)},
		{Label: "cold-read", SimMeanUS: sim.cold.Mean(), SimP99US: sim.cold.Quantile(0.99),
			RealMeanUS: real.cold.Mean(), RealP99US: real.cold.Quantile(0.99)},
	}, nil
}

// realbenchSide runs the whole measurement program on one backend
// through the backend-neutral API only: futures, Await, Exec, the
// cluster clock. The two sides differ in a single Config field.
func realbenchSide(bk core.BackendKind, seed int64) (*benchSide, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cl, err := core.NewCluster(core.Config{
		Backend: bk,
		Seed:    seed,
		Scheme:  core.SchemeE2E,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	tgt, err := workload.NewClusterTarget(cl, workload.ClusterConfig{
		WarmPool:   accessPool,
		ColdPool:   realbenchAccesses,
		ObjectSize: accessObjectSize,
		IOSize:     accessReadBytes,
	})
	if err != nil {
		return nil, err
	}
	if err := tgt.WarmCtx(ctx); err != nil {
		return nil, err
	}

	side := &benchSide{warm: telemetry.NewHistogram(), cold: telemetry.NewHistogram()}

	// E1: sequential closed-loop RTTs, one outstanding op, measured on
	// the cluster clock (virtual or wall).
	measure := func(op workload.Op, hist *telemetry.Histogram) error {
		var f *future.Future[struct{}]
		var start netsim.Time
		cl.Exec(func() {
			var complete func(struct{}, error)
			f, complete = future.New[struct{}]()
			start = cl.Clock.Now()
			tgt.Issue(op, func(err error) { complete(struct{}{}, err) })
		})
		if _, err := core.Await(ctx, cl, f); err != nil {
			return err
		}
		hist.Observe(cl.Clock.Now().Sub(start).Microseconds())
		return nil
	}
	for i := 0; i < realbenchAccesses; i++ {
		if err := measure(workload.Op{Kind: workload.OpRead, Key: i}, side.warm); err != nil {
			return nil, fmt.Errorf("warm read %d: %w", i, err)
		}
	}
	for i := 0; i < realbenchAccesses; i++ {
		if err := measure(workload.Op{Kind: workload.OpRead, Cold: true, Key: i}, side.cold); err != nil {
			return nil, fmt.Errorf("cold read %d: %w", i, err)
		}
	}
	return side, nil
}
