package experiments

import "testing"

// TestRealbenchSmoke runs E11 end to end: both backends, warm+cold RTT
// classes. Realnet wall-clock numbers are noisy, so assertions are
// structural (samples exist) with only very generous sanity bounds.
func TestRealbenchSmoke(t *testing.T) {
	rows, err := Realbench(RealbenchConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.SimMeanUS <= 0 || r.RealMeanUS <= 0 {
			t.Errorf("%s: non-positive mean RTT: sim %.1f real %.1f",
				r.Label, r.SimMeanUS, r.RealMeanUS)
		}
		if r.SimP99US < r.SimMeanUS*0.5 || r.RealP99US < r.RealMeanUS*0.5 {
			t.Errorf("%s: p99 below half the mean: %+v", r.Label, r)
		}
	}
}
