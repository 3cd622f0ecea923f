package realtest

import (
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/future"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestLoopbackE1 is E1 (one-sided access RTT) over real sockets, on
// the §4 access workload of Figures 2 and 3: warm reads cycle through a
// pool of 64 pre-discovered 4 KiB objects, and each cold read takes an
// object never read before, so it pays e2e discovery. Every read moves
// 64 bytes and is timed on the wall clock. Its log is the real-socket
// column beside fig2's simulated E2E rows. Loopback latency is noisy
// under CI schedulers, so the tolerances are deliberately generous —
// the point is that the identical stack completes real round trips in
// sane time, not a performance pin.
func TestLoopbackE1(t *testing.T) {
	c := NewCluster(t, core.Config{NumNodes: 3, Seed: 11})

	const (
		pool      = 64
		samples   = 400 // reads per class
		objSize   = 4096
		readBytes = 64
	)
	var warmObjs, coldObjs []object.Global
	for i := 0; i < pool; i++ {
		warmObjs = append(warmObjs, c.CreateObject(1+i%2, objSize))
	}
	for i := 0; i < samples; i++ {
		coldObjs = append(coldObjs, c.CreateObject(1+i%2, objSize))
	}
	// Warm the pool: one read each discovers and caches the home.
	for _, g := range warmObjs {
		c.ReadAt(0, g, object.HeaderSize, 1)
	}

	measure := func(g object.Global, hist *telemetry.Histogram) {
		var f *future.Future[[]byte]
		var start netsim.Time
		c.Exec(func() {
			start = c.Clock.Now()
			f = c.Node(0).Coherence.ReadAt(g.Obj, object.HeaderSize, readBytes)
		})
		Await(c, f)
		hist.Observe(c.Clock.Now().Sub(start).Microseconds())
	}
	warm, cold := telemetry.NewHistogram(), telemetry.NewHistogram()
	for i := 0; i < samples; i++ {
		measure(warmObjs[i%pool], warm)
	}
	for _, g := range coldObjs {
		measure(g, cold)
	}

	for _, class := range []struct {
		name string
		hist *telemetry.Histogram
	}{{"warm", warm}, {"cold", cold}} {
		// Generous tolerance: loopback RTTs are microseconds; a 100ms
		// mean means something is retransmitting or wedged.
		if m := class.hist.Mean(); m <= 0 || m > 100_000 {
			t.Errorf("%s mean RTT %.1fµs outside (0, 100ms]", class.name, m)
		}
		t.Logf("loopback E1 %s read: %d samples, mean %.1fµs p50 %.1fµs p99 %.1fµs", class.name,
			class.hist.Count(), class.hist.Mean(), class.hist.Quantile(0.5), class.hist.Quantile(0.99))
	}

	if c.Telemetry().Value("net.frames_delivered") == 0 {
		t.Fatal("no frames crossed the sockets")
	}
}

// TestLoopbackE9Sweep runs a short open-loop Poisson sweep point over
// real sockets through the same workload runner the simulator uses,
// checking only that real completions happen at a sane clip.
func TestLoopbackE9Sweep(t *testing.T) {
	c := NewCluster(t, core.Config{NumNodes: 4, Seed: 12})

	// Unwarmed: the first reads of each object pay discovery inside the
	// window, which the goodput floor below allows for.
	tgt, err := workload.NewClusterTarget(c.Cluster, workload.ClusterConfig{WarmPool: 32})
	if err != nil {
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

// TestKeptRepliesReleasedAfterABurst: a burst of reads leaves the homes
// holding the replies a lost one would be asked for again. The reader
// goes quiet and tells each home its mark, so every reply is released
// (and its buffer back in the pool) within ten retransmit timeouts of
// the burst's last op: not a retry budget later, which is 250 ms on
// realnet, past the 100 ms the benchmark waits for its buffers.
func TestKeptRepliesReleasedAfterABurst(t *testing.T) {
	const rto = 2 * backend.Millisecond
	c := NewCluster(t, core.Config{NumNodes: 3, Seed: 5, Transport: transport.Config{RetransmitTimeout: rto}})
	var objs []object.Global
	for i := 0; i < 32; i++ {
		objs = append(objs, c.CreateObject(1+i%2, 4096))
	}
	for _, g := range objs {
		c.ReadAt(0, g, object.HeaderSize, 8) // discovered, and the home's copy cached
	}
	time.Sleep(time.Duration(10 * rto)) // the warm-up's own tells
	tel := c.Telemetry()
	bufs, tells := dataplane.LiveBufs(), tel.Value("transport.acks_sent")
	var fs []*future.Future[[]byte]
	c.Exec(func() {
		for _, g := range objs {
			fs = append(fs, c.Node(0).Coherence.ReadAt(g.Obj, object.HeaderSize, 8))
		}
	})
	for _, f := range fs {
		Await(c, f)
	}
	last := time.Now()
	for {
		tel := c.Telemetry()
		if tel.Value("transport.replies_kept") == 0 && dataplane.LiveBufs() == bufs {
			// A read-only burst acks nothing else: the reader's acks are
			// its tells.
			if tel.Value("transport.acks_sent") == tells {
				t.Fatal("no tell was sent: the burst kept no reply")
			}
			return
		}
		if waited := time.Since(last); waited > time.Duration(10*rto) {
			t.Fatalf("%v after the burst: %d replies kept, LiveBufs %d above the baseline",
				waited, tel.Value("transport.replies_kept"), dataplane.LiveBufs()-bufs)
		}
		time.Sleep(time.Duration(rto / 4))
	}
}

// TestHarnessRefusesSimBackend pins that the harness forces realnet
// even when the config asks for the simulator.
func TestHarnessRefusesSimBackend(t *testing.T) {
	c := NewCluster(t, core.Config{Backend: core.BackendSim})
	if c.Sim != nil {
		t.Fatal("harness built a sim cluster")
	}
}
