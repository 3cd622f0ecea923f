package experiments

import "testing"

// TestRaftBenchSmoke runs E13: the degenerate single controller plus
// the 3- and 5-replica groups. The replicated rows must survive every
// leader kill with zero acknowledged announces lost. The baseline row
// documents why replication exists (its crash wipes the map); it holds
// no election, so it reports no election time and no re-election (its
// controller leading again on restart is not one).
func TestRaftBenchSmoke(t *testing.T) {
	rep, err := raftBench(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		t.Logf("replicas=%d election=%.1fµs commit=%.1f/%.1fµs reelect=%.1fµs avail=%.1f%% redirects=%d elections=%d committed=%d lost=%d",
			r.Replicas, r.ElectionUS, r.CommitMeanUS, r.CommitP99US,
			r.ReElectionMeanUS, r.AvailabilityPct, r.Redirects, r.Elections, r.Committed, r.Lost)
	}
	base := rep.Rows[0]
	if base.Replicas != 1 {
		t.Fatalf("first row has %d replicas, want the unreplicated baseline", base.Replicas)
	}
	if base.ElectionUS != 0 || base.Elections != 0 || base.ReElectionMeanUS != 0 {
		t.Errorf("degenerate controller should not elect (election=%.1f, elections=%d, re-election=%.1f)",
			base.ElectionUS, base.Elections, base.ReElectionMeanUS)
	}
	for i, ha := range rep.Rows[1:] {
		if want := []int{3, 5}[i]; ha.Replicas != want {
			t.Fatalf("row %d has %d replicas, want %d", i+1, ha.Replicas, want)
		}
		if ha.ElectionUS <= 0 {
			t.Errorf("%d replicas: no election time reported", ha.Replicas)
		}
		if ha.Lost != 0 {
			t.Errorf("%d replicas: lost %d acknowledged announces", ha.Replicas, ha.Lost)
		}
		if ha.SweepFailed > 0 {
			t.Errorf("%d replicas: sweep failed %d/%d ops", ha.Replicas, ha.SweepFailed, ha.SweepOps)
		}
		if ha.LeaderChanges < 1+raftKills { // initial election + one per kill round
			t.Errorf("%d replicas: expected at least %d leader changes, got %d",
				ha.Replicas, 1+raftKills, ha.LeaderChanges)
		}
	}
}
