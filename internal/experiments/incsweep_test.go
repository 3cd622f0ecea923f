package experiments

import "testing"

// TestIncSweepWins runs the E14 sweep and asserts each
// in-network computation shows its measured win over the same seeded
// workload with the feature off:
//
//   - mcast: the home emits fewer invalidate frames per round than
//     the per-sharer unicast fan-out, with no ack-timeout fallbacks;
//   - agg: the home receives fewer ack frames than one-per-sharer,
//     with switches actually coalescing and never fabricating.
func TestIncSweepWins(t *testing.T) {
	rep, err := incSweep(52)
	if err != nil {
		t.Fatal(err)
	}

	moff, mon := rep.Mcast[0], rep.Mcast[1]
	if mon.HomeInvFrames >= moff.HomeInvFrames {
		t.Errorf("mcast on: home emitted %d invalidate frames, off %d — no win",
			mon.HomeInvFrames, moff.HomeInvFrames)
	}
	if mon.FramesSaved == 0 || mon.Replicated == 0 {
		t.Errorf("mcast on: saved=%d replicated=%d — multicast never engaged",
			mon.FramesSaved, mon.Replicated)
	}
	if mon.Fallbacks != 0 {
		t.Errorf("mcast on: %d ack-timeout fallbacks in a fault-free sweep", mon.Fallbacks)
	}
	t.Logf("mcast: home inv frames %d -> %d (saved %d)",
		moff.HomeInvFrames, mon.HomeInvFrames, mon.FramesSaved)

	aoff, aon := rep.Agg[0], rep.Agg[1]
	if aon.AcksAtHome >= aoff.AcksAtHome {
		t.Errorf("agg on: home received %d acks, off %d — no win", aon.AcksAtHome, aoff.AcksAtHome)
	}
	if aon.AcksCoalesced == 0 || aon.AggAcksSent == 0 {
		t.Errorf("agg on: coalesced=%d sent=%d — aggregation never engaged",
			aon.AcksCoalesced, aon.AggAcksSent)
	}
	if aon.AggTimeouts != 0 {
		t.Errorf("agg on: %d switch flush timeouts in a fault-free sweep", aon.AggTimeouts)
	}
	t.Logf("agg: acks at home %d -> %d (coalesced %d)",
		aoff.AcksAtHome, aon.AcksAtHome, aon.AcksCoalesced)
}
