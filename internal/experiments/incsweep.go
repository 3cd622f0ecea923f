package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/inc"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/workload"
)

// E14: in-network computation wins, measured per feature as an on/off
// pair over the same seeded workload. Each pair isolates one gate:
//
//   - mcast: repeated invalidation rounds over a multi-member sharer
//     set, with and without multicast — the win is the home emitting
//     one invalidate frame per round instead of one per sharer;
//   - agg: the same rounds with ack aggregation added — the win is
//     the home receiving one coalesced ack per round instead of one
//     per sharer.

// IncMcastRow is one half of the multicast on/off pair.
type IncMcastRow struct {
	Enabled bool `json:"enabled"`
	Sharers int  `json:"sharers"`
	Rounds  int  `json:"rounds"`
	// HomeInvFrames counts invalidate frames the home emitted
	// (coherence InvalidatesSent: per-sharer unicasts, or one
	// multicast per round).
	HomeInvFrames uint64 `json:"home_inv_frames"`
	// FramesSaved is the home's accounting of unicasts a multicast
	// replaced; Replicated counts switch-emitted copies.
	FramesSaved uint64 `json:"frames_saved"`
	Replicated  uint64 `json:"replicated"`
	// Fallbacks counts per-sharer retries after ack timeouts (should
	// stay 0 in a fault-free sweep).
	Fallbacks uint64 `json:"fallbacks"`
}

func (r IncMcastRow) cells() []any {
	return []any{"mcast", r.Enabled, "sharers", r.Sharers, "rounds", r.Rounds,
		"home_inv_frames", r.HomeInvFrames, "frames_saved", r.FramesSaved,
		"replicated", r.Replicated, "fallbacks", r.Fallbacks}
}

// IncAggRow is one half of the ack-aggregation on/off pair (both
// halves run with multicast on; only aggregation toggles).
type IncAggRow struct {
	Enabled bool `json:"enabled"`
	Sharers int  `json:"sharers"`
	Rounds  int  `json:"rounds"`
	// AcksAtHome counts ack frames the home absorbed.
	AcksAtHome uint64 `json:"acks_at_home"`
	// AcksCoalesced/AggAcksSent/AggTimeouts are switch-side.
	AcksCoalesced uint64 `json:"acks_coalesced"`
	AggAcksSent   uint64 `json:"agg_acks_sent"`
	AggTimeouts   uint64 `json:"agg_timeouts"`
}

func (r IncAggRow) cells() []any {
	return []any{"agg", r.Enabled, "sharers", r.Sharers, "rounds", r.Rounds,
		"acks_at_home", r.AcksAtHome, "acks_coalesced", r.AcksCoalesced,
		"agg_acks_sent", r.AggAcksSent, "agg_timeouts", r.AggTimeouts}
}

// IncReport is E14's output (BENCH_inc.json).
type IncReport struct {
	workload.ReportHeader
	Mcast [2]IncMcastRow `json:"mcast"` // [off, on]
	Agg   [2]IncAggRow   `json:"agg"`   // [off, on]
}

// incSweep runs experiment E14. Each half of each pair runs on its own
// cluster at the same seed.
func incSweep(seed int64) (*IncReport, error) {
	offOn := []bool{false, true}
	mcast, err := sweep(offOn, func(on bool) (IncMcastRow, error) { return incMcastPoint(seed, on) })
	if err != nil {
		return nil, fmt.Errorf("mcast: %w", err)
	}
	agg, err := sweep(offOn, func(on bool) (IncAggRow, error) { return incAggPoint(seed, on) })
	if err != nil {
		return nil, fmt.Errorf("agg: %w", err)
	}
	return &IncReport{ReportHeader: workload.ReportHeader{SchemaVersion: 1, Seed: seed},
		Mcast: [2]IncMcastRow(mcast), Agg: [2]IncAggRow(agg)}, nil
}

const (
	// incSharers and incRounds size the invalidation-round workload.
	incSharers, incRounds = 5, 60
	// incRoundSettle spaces invalidation rounds so each round's acks
	// (and any switch aggregation) finish before the next acquire wave.
	incRoundSettle = 200 * netsim.Microsecond
)

// incShareRounds drives the invalidation-round workload both message
// pairs share: every round each sharer acquires a shared copy, then
// the home writes, invalidating the whole set.
func incShareRounds(seed int64, cc core.Config) (*core.Cluster, error) {
	cc.Seed = seed
	cc.Scheme = core.SchemeController
	cc.NumNodes = incSharers + 1
	c, err := core.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	home := c.Node(0)
	o, err := home.CreateObject(2048)
	if err != nil {
		return nil, err
	}
	obj := o.ID()
	c.Run()

	payload := make([]byte, 32)
	// Each invalidation round (acks, timers) gets a settling window
	// before the next acquire wave.
	err = workload.RunToCompletion(c, incRounds, incRoundSettle, func(i int, next func()) {
		left := incSharers
		for s := 1; s <= incSharers; s++ {
			c.Node(s).Coherence.AcquireShared(obj).Then(func(_ *object.Object, err error) {
				if err != nil {
					return
				}
				left--
				if left == 0 {
					off := uint64(object.HeaderSize + object.FOTEntrySize*object.DefaultFOTCap)
					home.Coherence.WriteAt(obj, off, payload).Then(func(_ struct{}, err error) {
						if err == nil {
							next()
						}
					})
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

func incMcastPoint(seed int64, on bool) (IncMcastRow, error) {
	c, err := incShareRounds(seed, core.Config{Inc: inc.Config{Mcast: on}})
	if err != nil {
		return IncMcastRow{}, err
	}
	home := c.Node(0)
	return IncMcastRow{
		Enabled: on, Sharers: incSharers, Rounds: incRounds,
		HomeInvFrames: home.Coherence.Counters().InvalidatesSent,
		FramesSaved:   home.Coherence.IncCounters().McastFramesSaved,
		Replicated:    c.Telemetry().Value("inc.mcast_replicated"),
		Fallbacks:     home.Coherence.IncCounters().FallbackInvalidates,
	}, nil
}

func incAggPoint(seed int64, on bool) (IncAggRow, error) {
	c, err := incShareRounds(seed, core.Config{Inc: inc.Config{Mcast: true, AckAgg: on}})
	if err != nil {
		return IncAggRow{}, err
	}
	tel := c.Telemetry()
	return IncAggRow{
		Enabled: on, Sharers: incSharers, Rounds: incRounds,
		AcksAtHome:    c.Node(0).Coherence.IncCounters().McastAcksRecv,
		AcksCoalesced: tel.Value("inc.acks_coalesced"),
		AggAcksSent:   tel.Value("inc.agg_acks_sent"),
		AggTimeouts:   tel.Value("inc.agg_timeouts"),
	}, nil
}
