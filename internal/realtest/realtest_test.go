package realtest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/future"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestLoopbackE1 is E1 (one-sided access RTT) over real sockets: warm
// reads against pre-discovered objects and cold reads that pay e2e
// discovery, measured on the wall clock. Loopback latency is noisy
// under CI schedulers, so the tolerances are deliberately generous —
// the point is that the identical stack completes real round trips
// in sane time, not a performance pin.
func TestLoopbackE1(t *testing.T) {
	c := NewCluster(t, core.Config{NumNodes: 3, Seed: 11})

	const accesses = 30
	warm := telemetry.NewHistogram()
	cold := telemetry.NewHistogram()

	var warmObjs, coldObjs []object.Global
	for i := 0; i < accesses; i++ {
		warmObjs = append(warmObjs, c.CreateObject(1+i%2, 4096))
		coldObjs = append(coldObjs, c.CreateObject(1+i%2, 4096))
	}
	// Warm the warm set: one read each discovers and caches the home.
	for _, g := range warmObjs {
		c.ReadAt(0, g, object.HeaderSize, 16)
	}

	measure := func(g object.Global, hist *telemetry.Histogram) {
		var f *future.Future[[]byte]
		var start netsim.Time
		c.Exec(func() {
			start = c.Clock.Now()
			f = c.Node(0).Coherence.ReadAt(g.Obj, object.HeaderSize, 16)
		})
		Await(c, f)
		hist.Observe(c.Clock.Now().Sub(start).Microseconds())
	}
	for _, g := range warmObjs {
		measure(g, warm)
	}
	for _, g := range coldObjs {
		measure(g, cold)
	}

	// Generous tolerances: loopback RTTs are microseconds; 100ms mean
	// means something is retransmitting or wedged.
	if m := warm.Mean(); m <= 0 || m > 100_000 {
		t.Errorf("warm mean RTT %.1fµs outside (0, 100ms]", m)
	}
	if m := cold.Mean(); m <= 0 || m > 100_000 {
		t.Errorf("cold mean RTT %.1fµs outside (0, 100ms]", m)
	}
	t.Logf("loopback E1: warm mean %.1fµs p99 %.1fµs; cold mean %.1fµs p99 %.1fµs",
		warm.Mean(), warm.Quantile(0.99), cold.Mean(), cold.Quantile(0.99))

	if st := c.Stats(); st.Network.FramesDelivered == 0 {
		t.Fatalf("no frames crossed the sockets: %+v", st.Network)
	}
}

// TestLoopbackE9Sweep runs a short open-loop Poisson sweep point over
// real sockets through the same workload runner the simulator uses,
// checking only that real completions happen at a sane clip.
func TestLoopbackE9Sweep(t *testing.T) {
	c := NewCluster(t, core.Config{NumNodes: 4, Seed: 12})

	tgt, err := workload.NewClusterTarget(c.Cluster, workload.ClusterConfig{
		WarmPool:   32,
		ObjectSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := c.ctx()
	defer cancel()
	if err := tgt.WarmCtx(ctx); err != nil {
		t.Fatal(err)
	}

	const (
		warmup = 20 * netsim.Millisecond
		window = 80 * netsim.Millisecond
		rate   = 2000.0
	)
	run := workload.New(c.Clock, tgt, workload.Config{
		Seed:           12,
		Arrival:        workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerSec: rate},
		Mix:            workload.Mix{ReadPct: 90, WritePct: 10},
		Warmup:         warmup,
		Measure:        window,
		MaxOutstanding: 64,
	})
	c.Exec(run.Start)
	c.RunFor(warmup + window + 100*netsim.Millisecond)

	var res workload.Result
	c.Exec(func() { res = run.Result() })
	if res.Counters.OpsCompleted == 0 {
		t.Fatalf("no ops completed over real sockets: %+v", res.Counters)
	}
	// Generous floor: a tenth of offered load still proves the runner
	// and stack move real traffic; CI boxes can be slow.
	if gp := res.GoodputPerSec(); gp < rate/10 {
		t.Errorf("goodput %.0f/s below a tenth of offered %.0f/s: %+v",
			gp, rate, res.Counters)
	}
	t.Logf("loopback E9 point: rate %.0f/s goodput %.0f/s p99 %.1fµs errors %d",
		rate, res.GoodputPerSec(), res.Latency.P99, res.Counters.OpsFailed)
}

// TestHarnessRefusesSimBackend pins that the harness forces realnet
// even when the config asks for the simulator.
func TestHarnessRefusesSimBackend(t *testing.T) {
	c := NewCluster(t, core.Config{Backend: core.BackendSim})
	if c.Sim != nil {
		t.Fatal("harness built a sim cluster")
	}
}
