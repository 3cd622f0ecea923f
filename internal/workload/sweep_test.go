package workload

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// testSweepConfig is a deliberately tiny grid so the determinism
// tests stay fast while still crossing every layer (discovery,
// coherence, placement, transport, switches).
func testSweepConfig() SweepConfig {
	return SweepConfig{
		Seed:    42,
		Schemes: []core.Scheme{core.SchemeE2E, core.SchemeController},
		Rates:   []float64{2000, 8000},
		Runner: Config{
			Arrival: ArrivalConfig{Kind: ArrivalPoisson},
			Mix:     Mix{ColdFrac: 0.05},
			Keys:    KeyConfig{Dist: KeyZipf, Population: 16},
			Warmup:  2 * netsim.Millisecond,
			Measure: 5 * netsim.Millisecond,
		},
		Target: ClusterConfig{WarmPool: 8, ColdPool: 8},
	}
}

// TestSweepDeterministic is the acceptance bar: two same-seed sweeps
// must produce byte-identical reports (GeneratedAt is stamped outside
// the run and stays empty here).
func TestSweepDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := Sweep(testSweepConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed sweeps differ:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
	rep, err := Sweep(testSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 {
		t.Fatalf("want 2 schemes, got %d", len(rep.Schemes))
	}
	for _, ss := range rep.Schemes {
		if len(ss.Points) != 2 {
			t.Fatalf("%s: want 2 points, got %d", ss.Scheme, len(ss.Points))
		}
		for _, p := range ss.Points {
			if p.Completed == 0 {
				t.Fatalf("%s: no completions at %.0f ops/s: %+v", ss.Scheme, p.OfferedPerSec, p)
			}
			if p.FramesSent == 0 {
				t.Fatalf("%s: workload sent no frames", ss.Scheme)
			}
			if p.P50US <= 0 || p.P99US < p.P50US {
				t.Fatalf("%s: implausible latency %+v", ss.Scheme, p)
			}
		}
		if ss.Knee.Reason == "" {
			t.Fatalf("%s: knee missing", ss.Scheme)
		}
	}
}

// TestClusterRunDeterministic pins the fine-grained state two
// same-seed runs must agree on: the full op schedule is exercised and
// the latency histogram buckets match bit-for-bit.
func TestClusterRunDeterministic(t *testing.T) {
	run := func() ([]telemetry.Bucket, Counters, telemetry.Snapshot) {
		cl, err := core.NewCluster(core.Config{Seed: 11, Scheme: core.SchemeE2E})
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := NewClusterTarget(cl, ClusterConfig{WarmPool: 8, ColdPool: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.Warm(); err != nil {
			t.Fatal(err)
		}
		r := New(cl.Sim, tgt, Config{
			Seed:    cl.Sim.Rand().Int63(),
			Arrival: ArrivalConfig{Kind: ArrivalPoisson, RatePerSec: 20000},
			Mix:     Mix{ColdFrac: 0.1},
			Keys:    KeyConfig{Dist: KeyZipf, Population: 16},
			Warmup:  netsim.Millisecond,
			Measure: 5 * netsim.Millisecond,
		})
		r.Start()
		cl.Run()
		reg := telemetry.NewRegistry()
		cl.AddTelemetry(reg)
		reg.Add("workload", r.counters)
		reg.Add("workload_target", tgt.counters)
		return r.Hist().Buckets(), r.Result().Counters, reg.Snapshot()
	}
	b1, c1, s1 := run()
	b2, c2, s2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverged:\n%+v\n%+v", c1, c2)
	}
	if len(b1) != len(b2) {
		t.Fatalf("bucket counts diverged: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("bucket %d diverged: %+v vs %+v", i, b1[i], b2[i])
		}
	}
	j1, err := s1.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("telemetry snapshots diverged:\n%s\n%s", j1, j2)
	}
	if c1.OpsCompleted == 0 {
		t.Fatal("no ops completed")
	}
	if s1.Value("workload_target.coherence_ops") == 0 {
		t.Fatalf("coherence op observer saw nothing:\n%s", s1.String())
	}
	if c1.ColdOps == 0 {
		t.Fatal("no cold ops generated")
	}
}

// TestClusterTargetKinds drives each op kind once and checks it
// completes successfully against a real cluster.
func TestClusterTargetKinds(t *testing.T) {
	cl, err := core.NewCluster(core.Config{Seed: 9, Scheme: core.SchemeE2E})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewClusterTarget(cl, ClusterConfig{WarmPool: 4, ColdPool: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Warm(); err != nil {
		t.Fatal(err)
	}
	kinds := []OpKind{OpRead, OpWrite, OpAcquireRelease, OpInvoke}
	done := make(map[OpKind]error, len(kinds))
	for i, k := range kinds {
		k := k
		tgt.Issue(Op{Kind: k, Key: i}, func(err error) { done[k] = err })
	}
	tgt.Issue(Op{Kind: OpRead, Cold: true}, func(err error) {
		if err != nil {
			t.Errorf("cold read: %v", err)
		}
	})
	cl.Run()
	for _, k := range kinds {
		err, ok := done[k]
		if !ok {
			t.Fatalf("%v never completed", k)
		}
		if err != nil {
			t.Fatalf("%v failed: %v", k, err)
		}
	}
	if tgt.counters.CoherenceOps == 0 {
		t.Fatal("op observer did not fire")
	}
}

// TestClusterTargetSharded pins the population to the fabric's routing:
// under SchemeSharded a frame goes where its object ID's shard prefix
// says, so a pool adopted at round-robin homes under random IDs is
// looked up at the wrong node (5 of the first 8 reads timed out).
func TestClusterTargetSharded(t *testing.T) {
	cl, err := core.NewCluster(core.Config{Seed: 9, NumNodes: 3, Scheme: core.SchemeSharded})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewClusterTarget(cl, ClusterConfig{WarmPool: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Warm(); err != nil {
		t.Fatal(err)
	}
	// Four clients, each issuing its next read when the last one is back.
	const clients, reads = 4, 64
	issued, completed, failed := 0, 0, 0
	var next func()
	next = func() {
		if issued == reads {
			return
		}
		key := issued
		issued++
		tgt.Issue(Op{Kind: OpRead, Key: key}, func(err error) {
			completed++
			if err != nil {
				failed++
				t.Logf("read %d: %v", key, err)
			}
			next()
		})
	}
	for i := 0; i < clients; i++ {
		next()
	}
	cl.Run()
	if completed != reads || failed != 0 {
		t.Fatalf("%d of %d reads completed, %d failed", completed, reads, failed)
	}
}
