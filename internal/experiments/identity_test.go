package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestSimBitIdentity pins the exact same-seed Figure 2 output to six
// decimal places. The backend seam (Clock/Link interfaces, the MTU
// hook, the futures rewrite) must be invisible to the simulator: any
// refactor that shifts an event ordering, a random draw, or a
// fragment size shows up here as a changed digit. Update these
// goldens only for a deliberate, explained behavior change.
func TestSimBitIdentity(t *testing.T) {
	rows, err := Figure2(Fig2Config{
		Seed:             42,
		AccessesPerPoint: 200,
		Points:           []int{0, 30, 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%d %.6f %.6f %.6f %.6f %.6f\n",
			r.PctNew, r.ControllerMeanUS, r.ControllerP99US,
			r.E2EMeanUS, r.E2EP99US, r.BroadcastsPer100)
	}
	// Re-pinned once, by exactly 51 ns per controller-path access
	// (46.993745 → 46.942745): since a response is its request's ack,
	// no 64-byte MsgAck serialises ahead of the response on the home's
	// 10 Gb/s uplink. The measured retransmit timer alone moves nothing.
	const golden = "0 46.942745 46.892000 46.942745 46.892000 0.000000\n" +
		"30 46.927700 46.892000 58.995820 93.000000 26.000000\n" +
		"60 46.911635 46.892000 74.061590 93.000000 58.500000\n"
	if b.String() != golden {
		t.Fatalf("same-seed fig2 output drifted from the pinned seed baseline:\ngot:\n%swant:\n%s",
			b.String(), golden)
	}
}

// TestHotpathKneeIdentity pins E15's two knee rows at seed 42: the
// per-frame sweep's knee and the batched sweep's, with the mean beside
// the bucketed p99 so that one reordered doorbell shows. These are the
// only digits held on BatchDelivery and HostRxCost; they were captured
// while a doorbell still handed its frames to a batch upcall, and hold
// now that it makes one per-frame upcall each. The per-frame knee's
// p99 fell from 552 to 432 µs (mean 136.8 → 124.4) when the
// retransmit timer's floor moved onto its variance term: at 32k ops/s
// the host-cost queue no longer sets off spurious retransmits.
func TestHotpathKneeIdentity(t *testing.T) {
	if raceEnabled {
		t.Skip("the full ladder under the race detector; TestHotpathSmoke runs the short one")
	}
	rep, err := Hotpath(42)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range []struct {
		name  string
		sweep workload.SchemeSweep
	}{{"per-frame", rep.Unbatched}, {"batched", rep.Batched}} {
		k := s.sweep.Knee
		fmt.Fprintf(&b, "%s %d %.0f %.6f %.6f %.6f %s\n", s.name, k.Index, k.OfferedPerSec,
			k.GoodputPerSec, k.P99US, s.sweep.Points[k.Index].MeanUS, k.Reason)
	}
	const golden = "per-frame 2 32000 31933.333333 432.000000 124.378552 p99_blowup\n" +
		"batched 5 128000 128500.000000 206.000000 77.120754 not_reached\n"
	if b.String() != golden {
		t.Fatalf("same-seed E15 knee rows drifted:\ngot:\n%swant:\n%s", b.String(), golden)
	}
}
