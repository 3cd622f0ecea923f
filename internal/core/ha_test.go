package core

import (
	"slices"
	"testing"

	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/oid"
)

// awaitLeaderIdx elects (or finds) the control-plane leader, fatally
// failing the test on timeout.
func awaitLeaderIdx(t *testing.T, c *Cluster) int {
	t.Helper()
	if _, ok := c.AwaitControlLeader(100 * netsim.Millisecond); !ok {
		t.Fatal("no control-plane leader elected")
	}
	return c.ControlLeaderIndex()
}

func TestControllerHATopology(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeController, Discovery: discovery.Config{Replicas: 3}})
	if got := len(c.Controllers); got != 3 {
		t.Fatalf("controllers = %d, want Discovery.Replicas", got)
	}
	if got := len(c.RaftNodes()); got != 3 {
		t.Fatalf("raft nodes = %d", got)
	}
	// The degenerate single-replica configuration must not build a
	// consensus node at all.
	single := newTestCluster(t, Config{Scheme: SchemeController})
	if got := len(single.RaftNodes()); got != 0 {
		t.Fatalf("1-replica cluster has %d raft nodes (want none)", got)
	}
	if single.Controllers[0].Raft() != nil {
		t.Fatal("degenerate controller carries a raft node")
	}
}

// stepUntil steps the simulator until cond holds, and fails the test if
// that takes more than limit of virtual time: a test waits for the
// state it is about to assert, not for a drain that happens to outlast
// it.
func stepUntil(t *testing.T, c *Cluster, limit netsim.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := c.Sim.Now().Add(limit)
	for !cond() {
		if c.Sim.Now() >= deadline || !c.Sim.Step() {
			t.Fatalf("%s: not within %v", what, limit)
		}
	}
}

// TestControllerHAFailover is the tentpole's acceptance path: announce
// through the consensus leader, kill it, and verify a follower
// promotes, committed state survives byte-for-byte, and a restarted
// replica replays its log back into agreement.
func TestControllerHAFailover(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeController, Discovery: discovery.Config{Replicas: 3}})
	leadIdx := awaitLeaderIdx(t, c)

	home, reader := c.Node(1), c.Node(0)
	objs := make([]oid.ID, 4)
	for i := range objs {
		o, err := home.CreateObject(2048)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o.ID()
	}
	stepUntil(t, c, 10*netsim.Millisecond, "announces acked", func() bool {
		for _, obj := range objs {
			if !home.Discovery().Announced(obj) {
				return false
			}
		}
		return true
	})
	committed := c.RaftNodes()[leadIdx].CommitIndex()
	if committed == 0 {
		t.Fatal("no committed entries after announces")
	}

	// Kill the leader; a follower must promote.
	c.CrashController(leadIdx)
	newIdx := awaitLeaderIdx(t, c)
	if newIdx == leadIdx {
		t.Fatalf("crashed replica %d still leads", newIdx)
	}

	// Take the last follower away as well, which holds the new leader
	// where every fresh leader is for one round trip: elected, but with
	// its term's first entry uncommitted, so not yet knowing which of
	// the entries it holds are committed. Its applied map lacks the
	// announces the dead leader acknowledged.
	third := 3 - leadIdx - newIdx
	c.CrashController(third)
	lead := c.LeaderController()
	if lead.Raft().ReadReady() {
		t.Fatal("a leader that has committed nothing in its term claims it can serve reads")
	}
	last := objs[len(objs)-1] // acked by the dead leader an instant before it died
	if _, ok := lead.Lookup(last); ok {
		t.Fatal("the new leader already applied every announce: the case under test did not arise")
	}

	// Zero committed loss, asked the way a host asks: a stale-marked
	// read re-locates through the leader (MsgLocate). "Unknown object"
	// from its incomplete map would fail the read fast; it must say
	// "not yet", and the client must keep asking until it can answer.
	var readErr error
	readDone := false
	cc := reader.Discovery()
	redirects := cc.Redirects()
	reader.Resolver.Invalidate(last)
	reader.Coherence.ReadAt(last, 8, 16).Then(func(_ []byte, err error) { readErr, readDone = err, true })
	stepUntil(t, c, 20*netsim.Millisecond, "the unready leader answers a locate", func() bool {
		return readDone || cc.Redirects() > redirects
	})
	if readDone {
		t.Fatalf("read finished (err = %v) while no live replica had applied the announce", readErr)
	}
	c.RestartController(third)
	stepUntil(t, c, 20*netsim.Millisecond, "post-failover locate+read", func() bool { return readDone })
	if readErr != nil {
		t.Fatalf("post-failover locate+read: %v", readErr)
	}
	for _, obj := range objs {
		owner, ok := lead.Lookup(obj)
		if !ok || owner != home.Station {
			t.Fatalf("committed announce of %s lost after failover (ok=%v owner=%d)", obj.Short(), ok, owner)
		}
	}

	// The restarted replica replays its log back into agreement
	// (daemon heartbeats walk it forward).
	c.RestartController(leadIdx)
	revived := c.RaftNodes()[leadIdx]
	leadNode := c.RaftNodes()[newIdx]
	stepUntil(t, c, 10*netsim.Millisecond, "revived replica catches up", func() bool {
		return revived.LastApplied() >= committed
	})
	for idx := uint64(1); idx <= committed; idx++ {
		lt, ld, lok := leadNode.EntryInfo(idx)
		rt, rd, rok := revived.EntryInfo(idx)
		if !lok || !rok || lt != rt || ld != rd {
			t.Fatalf("entry %d diverges after restart: leader(%d,%#x,%v) revived(%d,%#x,%v)",
				idx, lt, ld, lok, rt, rd, rok)
		}
	}
	for _, obj := range objs {
		owner, ok := c.Controllers[leadIdx].Lookup(obj)
		if !ok || owner != home.Station {
			t.Fatalf("revived replica's replayed state misses %s", obj.Short())
		}
	}
}

func TestControllerHATelemetryKeys(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeController, Discovery: discovery.Config{Replicas: 3}})
	awaitLeaderIdx(t, c)
	owner := c.Node(0)
	if _, err := owner.CreateObject(4096); err != nil {
		t.Fatal(err)
	}
	c.Run()
	snap := c.Telemetry()
	for _, key := range []string{
		"raft.term",
		"raft.commit_index",
		"raft.elections_total",
		"raft.leader_changes_total",
	} {
		if !slices.Contains(snap.Names(), key) {
			t.Fatalf("telemetry snapshot missing %q", key)
		}
	}
	if snap.Value("raft.term") < 1 {
		t.Fatalf("raft.term = %d", snap.Value("raft.term"))
	}
	if snap.Value("raft.commit_index") < 1 {
		t.Fatalf("raft.commit_index = %d", snap.Value("raft.commit_index"))
	}
	if snap.Value("raft.leader_changes_total") < 1 {
		t.Fatalf("raft.leader_changes_total = %d", snap.Value("raft.leader_changes_total"))
	}
	// Unreplicated schemes must not grow raft gauges.
	plain := newTestCluster(t, Config{Scheme: SchemeController})
	if slices.Contains(plain.Telemetry().Names(), "raft.term") {
		t.Fatal("unreplicated controller exports raft telemetry")
	}
}
