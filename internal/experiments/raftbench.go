package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// E13 is the replicated-control-plane benchmark: how long elections
// take, what consensus costs an announce, and what a leader-kill sweep
// does to control-plane availability, per replica count. Everything
// runs on virtual time; same-seed reports are byte-identical
// (GeneratedAt aside).

// raftReplicas are the control-plane sizes swept; 1 is the degenerate
// unreplicated controller — the baseline.
var raftReplicas = []int{1, 3, 5}

// RaftRow is one replica count's measurements.
type RaftRow struct {
	Replicas int `json:"replicas"`
	// ElectionUS is virtual time from cluster start to the first
	// leader (0 for the degenerate single controller).
	ElectionUS float64 `json:"election_us"`
	// CommitMeanUS/CommitP99US are announce acknowledgment latencies
	// under a stable leader: client request + raft commit + modeled
	// rule install.
	CommitMeanUS float64 `json:"commit_mean_us"`
	CommitP99US  float64 `json:"commit_p99_us"`
	// ReElectionMeanUS averages kill-to-new-leader time over the
	// sweep's successful re-elections (0 when none completed — the
	// one-replica control plane holds no election: it leads again only
	// when its process returns).
	ReElectionMeanUS float64 `json:"reelection_mean_us"`
	// SweepOps/SweepFailed: closed-loop operations riding through the
	// kill sweep and how many exhausted their retry budget.
	SweepOps    int `json:"sweep_ops"`
	SweepFailed int `json:"sweep_failed"`
	// AvailabilityPct is the sweep's success rate.
	AvailabilityPct float64 `json:"availability_pct"`
	// Redirects counts not-leader replies and rotations clients
	// followed across the whole run.
	Redirects uint64 `json:"redirects"`
	// Elections/LeaderChanges aggregate the raft counters (0 for the
	// degenerate controller).
	Elections     uint64 `json:"elections"`
	LeaderChanges uint64 `json:"leader_changes"`
	// Committed is the leader's final commit index.
	Committed uint64 `json:"committed"`
	// Lost counts acknowledged announces absent from the post-heal
	// leader's state — committed-entry loss, the number that must be
	// zero for every replicated row. (The one-replica baseline loses
	// its whole map on a crash; that is the point of the comparison.)
	Lost int `json:"lost"`
}

func (r RaftRow) cells() []any {
	return []any{"replicas", r.Replicas, "election_us", r.ElectionUS,
		"commit_mean_us", r.CommitMeanUS, "commit_p99_us", r.CommitP99US,
		"reelect_mean_us", r.ReElectionMeanUS, "sweep_ops", r.SweepOps, "failed", r.SweepFailed,
		"avail_pct", r.AvailabilityPct, "redirects", r.Redirects, "elections", r.Elections,
		"committed", r.Committed, "lost", r.Lost}
}

// RaftReport is the E13 artifact (BENCH_raft.json).
type RaftReport struct {
	workload.ReportHeader
	Rows []RaftRow `json:"rows"`
}

// raftBench runs E13: per replica count, elect, commit under a stable
// leader, then kill the leader repeatedly under closed-loop load. seed
// drives all randomness (election jitter, ID allocation).
func raftBench(seed int64) (*RaftReport, error) {
	rows, err := sweep(raftReplicas, func(k int) (RaftRow, error) { return raftRun(seed, k) })
	if err != nil {
		return nil, err
	}
	return &RaftReport{ReportHeader: workload.ReportHeader{SchemaVersion: 1, Seed: seed}, Rows: rows}, nil
}

const (
	// raftOps is the closed-loop operation count per phase.
	raftOps = 40
	// raftKills is how many leader-kill rounds the availability sweep
	// runs.
	raftKills   = 3
	raftObjSize = 2048
	// raftKillAt is when each sweep round's leader dies, relative to
	// the round's first operation.
	raftKillAt = 150 * netsim.Microsecond
	// raftHealAt is when the killed replica returns.
	raftHealAt = 2 * netsim.Millisecond
	// raftCatchUp bounds the post-round daemon-heartbeat drain that
	// walks the revived replica's log forward.
	raftCatchUp = 8 * netsim.Millisecond
)

func raftRun(seed int64, replicas int) (RaftRow, error) {
	c, err := core.NewCluster(core.Config{
		Seed:      seed,
		Scheme:    core.SchemeController,
		Discovery: discovery.Config{Replicas: replicas},
	})
	if err != nil {
		return RaftRow{}, err
	}
	row := RaftRow{Replicas: replicas}

	// Phase 0: initial election.
	if _, ok := c.AwaitControlLeader(100 * netsim.Millisecond); !ok {
		return RaftRow{}, fmt.Errorf("no leader within 100ms")
	}
	row.ElectionUS = us(c.Sim.Now().Sub(netsim.Time(0)))

	// Phase 1: commit latency under a stable leader — closed-loop
	// acknowledged announces from one host.
	home := c.Node(1)
	commit := telemetry.NewHistogram()
	var acked []oid.ID
	announce := func(next func(err error)) {
		o, err := object.New(c.NewID(), raftObjSize, 0)
		if err != nil {
			next(err)
			return
		}
		if err := home.Store.Put(o, 1, true); err != nil {
			next(err)
			return
		}
		id := o.ID()
		home.Discovery().AnnounceCB(id, func(err error) {
			if err == nil {
				acked = append(acked, id)
			}
			next(err)
		})
	}
	err = workload.RunToCompletion(c, raftOps, 0, func(i int, next func()) {
		start := c.Sim.Now()
		announce(func(err error) {
			if err == nil {
				commit.Observe(us(c.Sim.Now().Sub(start)))
			}
			next()
		})
	})
	if err != nil {
		return RaftRow{}, err
	}
	s := commit.Summarize()
	row.CommitMeanUS, row.CommitP99US = s.Mean, s.P99

	// Phase 2: the availability sweep. Each round kills the sitting
	// leader a moment after its closed-loop load starts, revives it
	// later, and lets daemon heartbeats catch the revived log up
	// before the next round.
	reader := c.Node(0)
	reelect := telemetry.NewHistogram()
	const (
		interOp     = 100 * netsim.Microsecond
		maxAttempts = 8
		retryDelay  = 250 * netsim.Microsecond
		pollEvery   = 50 * netsim.Microsecond
		maxPolls    = 200
	)
	for round := 0; round < raftKills; round++ {
		c.Sim.Schedule(raftKillAt, func() {
			idx := c.ControlLeaderIndex()
			if idx < 0 {
				return
			}
			c.CrashController(idx)
			killed := c.Sim.Now()
			// Only a leader an election produced counts: the one
			// unreplicated controller leads again when it restarts.
			changes := c.Telemetry().Value("raft.leader_changes_total")
			polls := 0
			var poll func()
			poll = func() {
				if c.LeaderController() != nil && c.Telemetry().Value("raft.leader_changes_total") > changes {
					reelect.Observe(us(c.Sim.Now().Sub(killed)))
					return
				}
				if polls++; polls < maxPolls {
					c.Sim.Schedule(pollEvery, poll)
				}
			}
			poll()
			c.Sim.Schedule(raftHealAt, func() { c.RestartController(idx) })
		})
		err = workload.RunToCompletion(c, raftOps, interOp, func(i int, next func()) {
			row.SweepOps++
			finish := func(err error) {
				if err != nil {
					row.SweepFailed++
				}
				next()
			}
			if i%2 == 0 {
				announce(finish)
				return
			}
			// Re-locate an announced object through the control plane:
			// the stale mark forces a MsgLocate, which follows leader
			// redirects.
			obj := acked[(round+i)%len(acked)]
			workload.Retry(c.Sim, retryDelay, maxAttempts, func(done func(error)) {
				reader.Resolver.Invalidate(obj)
				reader.Coherence.ReadAt(obj, 8, 16).Then(func(_ []byte, err error) { done(err) })
			}, func(_ int, err error) { finish(err) })
		})
		if err != nil {
			return RaftRow{}, err
		}
		c.Sim.RunFor(raftCatchUp)
	}
	if row.SweepOps > 0 {
		row.AvailabilityPct = 100 * float64(row.SweepOps-row.SweepFailed) / float64(row.SweepOps)
	}
	row.ReElectionMeanUS = reelect.Summarize().Mean

	// Post-heal verification: every acknowledged announce must still
	// be in the leading replica's applied state.
	lead, ok := c.AwaitControlLeader(50 * netsim.Millisecond)
	if !ok {
		return RaftRow{}, fmt.Errorf("no leader after the kill sweep")
	}
	for _, obj := range acked {
		if owner, found := lead.Lookup(obj); !found || owner != home.Station {
			row.Lost++
		}
	}
	for _, n := range c.Nodes {
		if cc := n.Discovery(); cc != nil {
			row.Redirects += cc.Redirects()
		}
	}
	tel := c.Telemetry()
	row.Elections = tel.Value("raft.elections_total")
	row.LeaderChanges = tel.Value("raft.leader_changes_total")
	row.Committed = tel.Value("raft.commit_index")
	return row, nil
}
