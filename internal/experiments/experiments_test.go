package experiments

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/workload"
)

// These tests validate the *shapes* the paper reports, on scaled-down
// workloads. The full-scale sweeps run from cmd/gaspbench and the
// root-level benchmarks.

func TestFigure2Shape(t *testing.T) {
	rows, err := Figure2(Fig2Config{
		Seed:             42,
		AccessesPerPoint: 300,
		Points:           []int{0, 50, 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	r0, r50, r90 := rows[0], rows[1], rows[2]

	// Controller: uniform 1 RTT across the sweep ("switch processing
	// overhead is minimal, even as new objects proliferate").
	spread := r90.ControllerMeanUS - r0.ControllerMeanUS
	if spread < 0 {
		spread = -spread
	}
	if spread > 0.25*r0.ControllerMeanUS {
		t.Errorf("controller not flat: %v vs %v", r0.ControllerMeanUS, r90.ControllerMeanUS)
	}

	// E2E: rises toward 2 RTT as new objects proliferate.
	if !(r90.E2EMeanUS > r50.E2EMeanUS && r50.E2EMeanUS > r0.E2EMeanUS) {
		t.Errorf("E2E not rising: %v, %v, %v", r0.E2EMeanUS, r50.E2EMeanUS, r90.E2EMeanUS)
	}
	if r90.E2EMeanUS < 1.5*r0.E2EMeanUS {
		t.Errorf("E2E at 90%% new should approach 2x baseline: %v vs %v",
			r90.E2EMeanUS, r0.E2EMeanUS)
	}

	// At 0% new, both schemes sit at ~1 RTT.
	ratio := r0.E2EMeanUS / r0.ControllerMeanUS
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("baseline RTTs differ: e2e=%v ctrl=%v", r0.E2EMeanUS, r0.ControllerMeanUS)
	}

	// Broadcast load tracks novelty (right axis).
	if r0.BroadcastsPer100 != 0 {
		t.Errorf("broadcasts at 0%% new: %v", r0.BroadcastsPer100)
	}
	if r90.BroadcastsPer100 < 60 || r90.BroadcastsPer100 > 120 {
		t.Errorf("broadcasts at 90%% new: %v, want ~90", r90.BroadcastsPer100)
	}
	if r50.BroadcastsPer100 <= r0.BroadcastsPer100 ||
		r90.BroadcastsPer100 <= r50.BroadcastsPer100 {
		t.Error("broadcast count not rising with novelty")
	}
}

func TestFigure3Shape(t *testing.T) {
	rows, err := Figure3(Fig3Config{
		Seed:             43,
		AccessesPerPoint: 300,
		Points:           []int{0, 50, 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	r0, r50, r90 := rows[0], rows[1], rows[2]

	// Access time rises with staleness.
	if !(r90.MeanUS > r50.MeanUS && r50.MeanUS > r0.MeanUS) {
		t.Errorf("mean not rising: %v, %v, %v", r0.MeanUS, r50.MeanUS, r90.MeanUS)
	}
	// Variability peaks mid-sweep and drops once staleness saturates
	// ("the variability drops again since nearly all accesses require
	// 2 round trips").
	if !(r50.StddevUS > r0.StddevUS) {
		t.Errorf("stddev should rise from 0%%: %v vs %v", r0.StddevUS, r50.StddevUS)
	}
	if !(r50.StddevUS > r90.StddevUS) {
		t.Errorf("stddev should drop at saturation: mid=%v end=%v", r50.StddevUS, r90.StddevUS)
	}
	// Stale retries track the moved fraction.
	if r0.StaleRetriesPerAccess != 0 {
		t.Errorf("stale retries at 0%%: %v", r0.StaleRetriesPerAccess)
	}
	if r90.StaleRetriesPerAccess < 0.6 {
		t.Errorf("stale retries at 90%%: %v", r90.StaleRetriesPerAccess)
	}
}

func TestCapacityNumbers(t *testing.T) {
	rows := Capacity()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r64, r128 := rows[0], rows[1]
	if r64.KeyBits != 64 || r128.KeyBits != 128 {
		t.Fatal("row order")
	}
	if r64.ModelCapacity < 1_700_000 || r64.ModelCapacity > 1_900_000 {
		t.Errorf("64-bit capacity = %d, paper ~1.8M", r64.ModelCapacity)
	}
	if r128.ModelCapacity < 800_000 || r128.ModelCapacity > 900_000 {
		t.Errorf("128-bit capacity = %d, paper ~850K", r128.ModelCapacity)
	}
	// The enforced (insert-to-full) count matches the model on the
	// scaled table.
	for _, r := range rows {
		scaledWant := r.ModelCapacity / (1 << 20 / 1) // proportional check below instead
		_ = scaledWant
		if r.AchievedEntries == 0 {
			t.Errorf("%d-bit: no entries inserted", r.KeyBits)
		}
	}
	if r64.AchievedEntries <= r128.AchievedEntries {
		t.Error("64-bit keys should pack more entries than 128-bit")
	}
	ratio := float64(r64.AchievedEntries) / float64(r128.AchievedEntries)
	if ratio < 1.8 || ratio > 2.4 {
		t.Errorf("density ratio = %.2f, paper ~2.1", ratio)
	}
}

func TestRendezvousShape(t *testing.T) {
	rows, err := Rendezvous(RendezvousConfig{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]RendezvousRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
		if !r.ResultOK {
			t.Errorf("%s: wrong inference result", r.Strategy)
		}
	}
	man, opt, auto, dave := byName["manual-copy"], byName["manual-copy-optimized"],
		byName["automatic-copy"], byName["dave-local"]

	// Completion ordering: (1) > (2) > (3) > Dave-local.
	if !(man.CompletionUS > opt.CompletionUS) {
		t.Errorf("manual (%v) should be slower than optimized (%v)",
			man.CompletionUS, opt.CompletionUS)
	}
	if !(opt.CompletionUS > auto.CompletionUS) {
		t.Errorf("optimized (%v) should be slower than automatic (%v)",
			opt.CompletionUS, auto.CompletionUS)
	}
	if !(auto.CompletionUS > dave.CompletionUS) {
		t.Errorf("automatic (%v) should be slower than Dave-local (%v)",
			auto.CompletionUS, dave.CompletionUS)
	}
	// Bytes: strategy 1 moves the model twice.
	if man.KBMoved < 1.6*opt.KBMoved {
		t.Errorf("manual moved %vKB, optimized %vKB — want ~2x", man.KBMoved, opt.KBMoved)
	}
	// The system placed the computation at idle Carol (station 3).
	if auto.Executor != 3 {
		t.Errorf("automatic executor = %v, want Carol", auto.Executor)
	}
	// Dave ran locally (station 4) with (almost) nothing moved.
	if dave.Executor != 4 {
		t.Errorf("dave executor = %v", dave.Executor)
	}
	if dave.KBMoved > opt.KBMoved/4 {
		t.Errorf("dave moved %vKB — should be near zero", dave.KBMoved)
	}
}

func TestSerializationClaims(t *testing.T) {
	rows, err := Serialization(SerializationConfig{
		Seed:    45,
		Sizes:   []ModelShape{{2000, 32}},
		Repeats: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Speedup < 2 {
		t.Errorf("byte-copy speedup = %.1fx, want >2x", r.Speedup)
	}
	if r.LoadFractionBaseline <= r.LoadFractionOurs {
		t.Errorf("load fractions: baseline %.2f vs ours %.2f",
			r.LoadFractionBaseline, r.LoadFractionOurs)
	}
	if r.LoadFractionBaseline < 0.3 {
		t.Errorf("baseline load fraction %.2f — deserialization should dominate",
			r.LoadFractionBaseline)
	}
}

func TestAblationPrefetchHelps(t *testing.T) {
	rows, err := AblationPrefetch(PrefetchConfig{Seed: 46, ChainLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	off, on := rows[0], rows[1]
	if off.Prefetch || !on.Prefetch {
		t.Fatal("row order")
	}
	if on.TotalUS >= off.TotalUS {
		t.Errorf("prefetch did not help: on=%v off=%v", on.TotalUS, off.TotalUS)
	}
	if on.LocalHits <= off.LocalHits {
		t.Errorf("prefetch local hits: on=%d off=%d", on.LocalHits, off.LocalHits)
	}
}

func TestAblationLossShape(t *testing.T) {
	// At 25% per link (68% over the four-hop path) a 128 KiB transfer
	// fails when one fragment loses every attempt the 10 ms stall
	// watchdog leaves it, and the seed picks the loss draws. Of seeds
	// 1–1000, 280 fail with 32 KiB fragments; 272 failed with 65,492 B
	// ones, since four fragments give the watchdog more chances to
	// expire than two (2,779 against 2,608 of 10,000). A change that
	// fails more seeds than this tree fails here.
	const seeds, maxFailed = 1000, 280
	failed := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rows, err := AblationLoss(seed, 128<<10, []float64{25})
		if err != nil {
			t.Fatal(err)
		}
		if !rows[0].Delivered {
			failed++
		}
	}
	if failed > maxFailed {
		t.Errorf("loss 25%%: %d of %d seeds failed, want at most %d", failed, seeds, maxFailed)
	}
	rows, err := AblationLoss(1, 128<<10, []float64{0, 10, 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[:2] {
		if !r.Delivered {
			t.Errorf("loss %.0f%%: transfer failed", r.LossPct)
		}
	}
	if rows[0].Retransmits != 0 {
		t.Errorf("retransmits on clean link: %d", rows[0].Retransmits)
	}
	if rows[2].Retransmits <= rows[1].Retransmits {
		t.Errorf("retransmits not rising: %d, %d", rows[1].Retransmits, rows[2].Retransmits)
	}
	if rows[2].CompletionUS <= rows[0].CompletionUS {
		t.Errorf("completion not rising with loss: %v vs %v",
			rows[0].CompletionUS, rows[2].CompletionUS)
	}
}

func TestAblationHybridGracefulDegradation(t *testing.T) {
	// NewCluster refuses a shard rule set that does not fit the filter
	// budget, so a nil error means every switch holds its shard rules.
	rows, err := AblationSaturation(5, 24)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, sh := rows[0], rows[1]
	if ctrl.TableCapacity >= ctrl.Objects {
		t.Fatalf("table not saturated: cap %d >= %d objects", ctrl.TableCapacity, ctrl.Objects)
	}
	if ctrl.Failures == 0 {
		t.Error("pure controller should fail overflow objects")
	}
	if sh.Failures != 0 || sh.Successes != sh.Objects {
		t.Errorf("sharded served %d of %d objects (%d failures)", sh.Successes, sh.Objects, sh.Failures)
	}
	if sh.RulesPerSw >= ctrl.RulesPerSw {
		t.Errorf("sharded rules/sw %v should be below controller %v", sh.RulesPerSw, ctrl.RulesPerSw)
	}

	// §3.2's overlay: the sharded rule count does not grow with the
	// object count.
	rows, err = AblationSaturation(5, 48)
	if err != nil {
		t.Fatal(err)
	}
	sh48 := rows[1]
	if sh48.Failures != 0 || sh48.Successes != sh48.Objects {
		t.Errorf("sharded served %d of %d objects at 48", sh48.Successes, sh48.Objects)
	}
	if sh48.RulesPerSw != sh.RulesPerSw {
		t.Errorf("sharded rules/sw grew with objects: %v at 24, %v at 48", sh.RulesPerSw, sh48.RulesPerSw)
	}
}

func TestScaleTradeoffShape(t *testing.T) {
	rows, err := ScaleTradeoff(ScaleConfig{
		Seed:       47,
		NodeCounts: []int{3, 27},
		Accesses:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	e2eSmall, ctrlSmall, e2eBig, ctrlBig := rows[0], rows[1], rows[2], rows[3]
	// E2E installs no object rules; controller state grows with the
	// switch count (objects × switches).
	if e2eSmall.ObjectRules != 0 || e2eBig.ObjectRules != 0 {
		t.Error("E2E should install no object rules")
	}
	if ctrlBig.ObjectRules <= ctrlSmall.ObjectRules {
		t.Errorf("controller rules should grow with fabric: %d vs %d",
			ctrlSmall.ObjectRules, ctrlBig.ObjectRules)
	}
	// E2E broadcast traffic grows with the host count; controller
	// traffic stays flat.
	if e2eBig.FabricFramesPerAccess <= 1.5*e2eSmall.FabricFramesPerAccess {
		t.Errorf("E2E frames/access should grow with N: %.1f vs %.1f",
			e2eSmall.FabricFramesPerAccess, e2eBig.FabricFramesPerAccess)
	}
	if ctrlBig.FabricFramesPerAccess > 1.5*ctrlSmall.FabricFramesPerAccess {
		t.Errorf("controller frames/access should stay flat: %.1f vs %.1f",
			ctrlSmall.FabricFramesPerAccess, ctrlBig.FabricFramesPerAccess)
	}
	// Cold-object latency: E2E ~2 RTT vs controller ~1 RTT.
	if e2eSmall.MeanUS < 1.5*ctrlSmall.MeanUS {
		t.Errorf("cold E2E should be ~2x controller: %.1f vs %.1f",
			e2eSmall.MeanUS, ctrlSmall.MeanUS)
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Rerunning any virtual-time experiment with the same seed must
	// reproduce identical rows — EXPERIMENTS.md's reproducibility
	// claim.
	cfg := Fig2Config{Seed: 42, AccessesPerPoint: 100, Points: []int{0, 50}}
	a, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Figure2 row %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	r1, err := Rendezvous(RendezvousConfig{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Rendezvous(RendezvousConfig{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("Rendezvous row %d diverged", i)
		}
	}
}

func TestFaultRecoveryMasksEveryFaultClass(t *testing.T) {
	rows, err := FaultRecovery(FaultsConfig{Seed: 5, Accesses: 90, Classes: faultClasses})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 schemes x 3 classes", len(rows))
	}
	for _, r := range rows {
		if r.Failures != 0 {
			t.Errorf("%s/%s: %d accesses never completed", r.Scheme, r.Fault, r.Failures)
		}
		if r.RecoveryUS <= 0 {
			t.Errorf("%s/%s: no post-fault access succeeded", r.Scheme, r.Fault)
		}
		if r.Fault == string(FaultCrash) {
			if r.Promotions == 0 {
				t.Errorf("%s/crash: no replica promotions", r.Scheme)
			}
			if r.Lost != 0 {
				t.Errorf("%s/crash: %d objects lost despite replication", r.Scheme, r.Lost)
			}
		}
	}
	// A crash must cost more to recover from than the no-op baseline
	// access time, and the run must replay bit-identically.
	again, err := FaultRecovery(FaultsConfig{Seed: 5, Accesses: 90, Classes: faultClasses})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("row %d not deterministic:\n%+v\n%+v", i, rows[i], again[i])
		}
	}
}

func TestLoadSweepShape(t *testing.T) {
	// Under the race detector the ladder stops at 64k ops/s: the rung
	// past it is the open loop collapsing by design (ROADMAP item 4)
	// and costs ten times the rest.
	rates := loadRates
	if raceEnabled {
		rates = loadRates[:6]
	}
	rep, err := workload.Sweep(loadConfig(42, rates))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 {
		t.Fatalf("schemes = %d, want e2e and controller", len(rep.Schemes))
	}
	for _, ss := range rep.Schemes {
		if len(ss.Points) != len(rep.Rates) {
			t.Fatalf("%s: %d points, want %d", ss.Scheme, len(ss.Points), len(rep.Rates))
		}
		// Clean points sit below the knee, and nothing fails at or
		// below it.
		if ss.Knee.Index < 1 {
			t.Errorf("%s: knee index %d (%s), want a clean point below it",
				ss.Scheme, ss.Knee.Index, ss.Knee.Reason)
		}
		for j, p := range ss.Points[:ss.Knee.Index+1] {
			if p.Failed > 0 {
				t.Errorf("%s point %d: %d failures below the knee", ss.Scheme, j, p.Failed)
			}
		}
		// 32k ops/s saturates the driver's link, and twice that must not
		// turn into a retransmit storm: 64k ops/s is at or below the
		// knee, nothing fails there, and an op costs no more fabric
		// frames than twice what it costs unloaded.
		first, at64k := ss.Points[0], ss.Points[5]
		if at64k.OfferedPerSec != 64_000 {
			t.Fatalf("%s: rung 5 offers %.0f ops/s, want 64000", ss.Scheme, at64k.OfferedPerSec)
		}
		if ss.Knee.OfferedPerSec < 64_000 || at64k.Failed > 0 {
			t.Errorf("%s: knee at %.0f ops/s; 64k ops/s completed %d, failed %d",
				ss.Scheme, ss.Knee.OfferedPerSec, at64k.Completed, at64k.Failed)
		}
		perOp := func(p workload.Point) float64 { return float64(p.FramesSent) / float64(p.Completed) }
		if perOp(at64k) > 2*perOp(first) {
			t.Errorf("%s: %.1f fabric frames per completed op at 64k ops/s, %.1f at the lowest rate",
				ss.Scheme, perOp(at64k), perOp(first))
		}
	}
}

// TestLoadSweepWarmsClean: at seed 42 every E9 point's warm-up reads
// its whole pool and the code object without an error. Sweep fails on
// a Warm error, and the measured window is cut to nothing so that only
// the warm-ups run.
func TestLoadSweepWarmsClean(t *testing.T) {
	cfg := loadConfig(42, loadRates)
	cfg.Runner.Warmup, cfg.Runner.Measure = netsim.Nanosecond, netsim.Nanosecond
	if _, err := workload.Sweep(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantCheckSmoke(t *testing.T) {
	// A clean protocol must sweep clean: E10's pass criterion. Six
	// scenarios at a third of the published 127 runs keep this quick
	// under -race; internal/check's own tests explore all seven. That a
	// broken protocol does not sweep clean is scripts/mutants.sh's to
	// show.
	scenarios := []string{"fig2", "faults", "evict", "raft", "dead-sharer", "batch"}
	rows, err := invariantCheck(7, scenarios, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(scenarios) {
		t.Fatalf("%d rows for %d scenarios", len(rows), len(scenarios))
	}
	for _, r := range rows {
		if !r.Clean() {
			t.Fatalf("scenario %s violated invariants under %s:\n%s",
				r.Scenario, r.Schedule, &r.Report)
		}
	}
}
