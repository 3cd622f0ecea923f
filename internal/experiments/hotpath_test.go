package experiments

import "testing"

// TestHotpathSmoke runs E15 and asserts the property the experiment
// exists to pin: batching the per-host delivery wakeups moves the
// saturation knee strictly right at the same simulated link speed.
// (The allocation budgets of the same path are workload's
// TestE2EAllocGates.)
func TestHotpathSmoke(t *testing.T) {
	// Under the race detector the ladder stops one rung past the
	// per-frame knee, which is all the assertions need.
	rates := hotpathRates
	if raceEnabled {
		rates = hotpathRates[:4]
	}
	rep, err := hotpath(42, rates)
	if err != nil {
		t.Fatal(err)
	}

	if !rep.KneeMovedRight {
		t.Errorf("batched knee idx=%d did not move right of per-frame idx=%d",
			rep.Batched.Knee.Index, rep.Unbatched.Knee.Index)
	}
	t.Logf("knee: per-frame idx=%d (%.0f ops/s, %s) -> batched idx=%d (%.0f ops/s, %s)",
		rep.Unbatched.Knee.Index, rep.Unbatched.Knee.OfferedPerSec, rep.Unbatched.Knee.Reason,
		rep.Batched.Knee.Index, rep.Batched.Knee.OfferedPerSec, rep.Batched.Knee.Reason)

	// The batched run must not trade latency for throughput below the
	// knee: at the lowest offered rate both configurations are
	// unsaturated, and batching may only help.
	if len(rep.Unbatched.Points) > 0 && len(rep.Batched.Points) > 0 {
		u0, b0 := rep.Unbatched.Points[0], rep.Batched.Points[0]
		if b0.P99US > u0.P99US {
			t.Errorf("batched p99 %.1fus worse than per-frame %.1fus at the lowest rate",
				b0.P99US, u0.P99US)
		}
	}
}
