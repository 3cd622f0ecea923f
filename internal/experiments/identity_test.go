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
	// Re-pinned by exactly 51 ns per controller-path access
	// (46.993745 → 46.942745): since a response is its request's ack,
	// no 64-byte MsgAck serialises ahead of the response on the home's
	// 10 Gb/s uplink. The measured retransmit timer alone moves nothing.
	// Then by exactly 216 ns per warm access (46.942745 → 46.726745):
	// the memproto header went from 44 fixed bytes to 10 (four bytes,
	// then six one-byte uvarints),
	// so the 64-byte read's request frame shrinks 108 → 74 B and its
	// response 172 → 138 B, 27 ns less serialisation at 0.8 ns/B on
	// each of the 4 links each way.
	// Then by exactly 51 ns per access issued the instant its
	// predecessor's response arrived (199 of the 0 % row's 200; 140 and
	// 77 controller, 148 and 82 E2E accesses in the 30 and 60 % rows,
	// whose fresh objects wait 50µs first): a response is not acked, so
	// its 64-byte MsgAck no longer serialises ahead of the next request
	// on the driver's 10 Gb/s uplink.
	// Then by exactly 152 ns per warm access (46.676 → 46.524): the GASP
	// header went from 64 bytes to 40, so the read's request frame
	// shrinks 74 → 50 B (59 → 40 ns a hop, truncated) and its response
	// 138 → 114 B (110 → 91 ns), 19 ns less on each of 4 links each way.
	const golden = "0 46.524000 46.524000 46.524000 46.524000 0.000000\n" +
		"30 46.524000 46.524000 58.550560 92.000000 26.000000\n" +
		"60 46.524000 46.524000 73.583760 92.000000 58.500000\n"
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
// the host-cost queue no longer sets off spurious retransmits. The
// compact memproto header then took 27 ns off each 10 Gb/s hop of a
// cache-line request or response: both means fell, the batched p99
// with them (206 → 200); the per-frame knee's bucketed p99 rose one
// 4 µs bucket (432 → 436), its ops the same and its frames 12 more.
// Since an unchanged copy's release goes home without its 512 bytes,
// each saves 514 B × 8 ns/B × 4 hops = 16.4 µs, but a release that
// crosses a write at the home (87 of the run's 585 data-less releases)
// goes again with its bytes, a round trip more: both means rose by
// 0.7 µs, and the batched p99 fell one bucket (200 → 198). An exclusive
// acquire of a copy still at the home's version is granted without its
// 512 bytes, 16.4 µs less over the four 1 Gb/s hops: 3 of the batched
// knee's 188 grants, so its mean fell 4.3 ns (75.495911 → 75.491643).
// A response is not acked: each exchange is two frames (48,154 → 32,450
// at the batched knee), so a per-frame home pays its 20 µs receive cost
// once less per op and the per-frame knee's p99 fell 436 → 304 µs (mean
// 124.7 → 102.6). Batched, fewer frames ride a doorbell already armed
// for an earlier one, delivered before a full receive cost has passed
// (65 % of host deliveries in a run of the 128k rung alone, 71 %
// before); more open their own,
// and the batched mean rose 1.09 µs (75.491643 → 76.578777), its p99
// bucket unchanged. The release of an unchanged copy then stopped
// sending anything: at the per-frame knee 36 data-less releases, one
// of which had crossed a write and gone again with its bytes, left the
// fabric, 296 frames (8,066 → 7,770), each a round trip and the
// receive costs it queued at the hosts, so the knee's p99 fell 304 →
// 284 µs (mean 102.6 → 97.6). At the batched knee 186 went, 34 of them
// with a second, data exchange: p99 198 → 168, mean 76.58 → 72.13. The
// per-frame 64k rung, past the knee, now completes 1,531 ops where it
// completed 1,014; the knees stay where they were. The 40-byte GASP
// header then took 24 B × 8 ns/B = 192 ns off every frame on each 1 Gb/s
// hop: the per-frame knee's mean fell 97.62 → 96.31 µs, the batched
// knee's 72.13 → 70.72 µs and its p99 one bucket (168 → 166); no knee
// moved.
func TestHotpathKneeIdentity(t *testing.T) {
	if raceEnabled {
		t.Skip("the full ladder under the race detector; TestHotpathSmoke runs the short one")
	}
	rep, err := hotpath(42, hotpathRates)
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
	const golden = "per-frame 2 32000 31933.333333 284.000000 96.307660 p99_blowup\n" +
		"batched 5 128000 128500.000000 166.000000 70.715882 not_reached\n"
	if b.String() != golden {
		t.Fatalf("same-seed E15 knee rows drifted:\ngot:\n%swant:\n%s", b.String(), golden)
	}
}
