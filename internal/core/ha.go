package core

import (
	"repro/internal/discovery"
	"repro/internal/netsim"
	"repro/internal/raft"
	"repro/internal/wire"
)

// This file is the cluster surface of the replicated control plane
// (SchemeController with Discovery.Replicas above 1): replica
// crash/restart, leader discovery, and the raft handles the fault
// engine, invariant checker, and E13 benchmark drive.

// controllerStations lists the control-plane replica stations for the
// configured scheme: Discovery.Replicas consecutive stations from
// controllerStation under SchemeController, none otherwise.
func (c *Cluster) controllerStations() []wire.StationID {
	if !schemes[c.cfg.Scheme].control {
		return nil
	}
	out := make([]wire.StationID, c.cfg.Discovery.Replicas)
	for i := range out {
		out[i] = controllerStation + wire.StationID(i)
	}
	return out
}

// RaftNodes returns the consensus node of every replicated controller
// (empty for unreplicated schemes).
func (c *Cluster) RaftNodes() []*raft.Node {
	var out []*raft.Node
	for _, ctrl := range c.Controllers {
		if rn := ctrl.Raft(); rn != nil {
			out = append(out, rn)
		}
	}
	return out
}

// LeaderController returns the control-plane replica that can commit
// proposals right now, or nil while no leader is elected. For the
// unreplicated schemes it is the (always-leading) single controller.
func (c *Cluster) LeaderController() *discovery.Controller {
	for i, ctrl := range c.Controllers {
		if !c.ctrlDown[i] && ctrl.IsLeader() {
			return ctrl
		}
	}
	return nil
}

// ControlLeaderIndex returns the leader replica's index into
// Controllers, or -1 while no leader is elected.
func (c *Cluster) ControlLeaderIndex() int {
	for i, ctrl := range c.Controllers {
		if !c.ctrlDown[i] && ctrl.IsLeader() {
			return i
		}
	}
	return -1
}

// CrashController kills control-plane replica i: its link drops, its
// endpoint forgets in-flight transfers, and the raft node loses all
// volatile state (log and term survive, as if persisted). Crashing an
// already-down replica is a no-op. Sim-only.
func (c *Cluster) CrashController(i int) {
	if c.Net == nil {
		panic("core: CrashController is sim-only")
	}
	if c.ctrlDown[i] {
		return
	}
	c.Net.SetLinkDown(c.controllerNodes[i], 0, true)
	c.controllerEPs[i].Reset()
	c.Controllers[i].Crash()
	c.ctrlDown[i] = true
}

// RestartController revives a crashed control-plane replica: the link
// returns and the raft node rejoins as a follower, replaying its log
// to rebuild the applied object map. Restarting a live replica is a
// no-op. Sim-only.
func (c *Cluster) RestartController(i int) {
	if c.Net == nil {
		panic("core: RestartController is sim-only")
	}
	if !c.ctrlDown[i] {
		return
	}
	c.Net.SetLinkDown(c.controllerNodes[i], 0, false)
	c.Controllers[i].Restart()
	c.ctrlDown[i] = false
}

// AwaitControlLeader steps the simulator until some control-plane
// replica leads, bounded by limit of virtual time. It returns the
// leader and true, or nil and false on timeout. Sim-only.
func (c *Cluster) AwaitControlLeader(limit netsim.Duration) (*discovery.Controller, bool) {
	if c.Sim == nil {
		panic("core: AwaitControlLeader is sim-only")
	}
	deadline := c.Sim.Now().Add(limit)
	for {
		if l := c.LeaderController(); l != nil {
			return l, true
		}
		if c.Sim.Now() >= deadline || !c.Sim.Step() {
			return nil, false
		}
	}
}

// ForgetStation drops every ownership record of a crashed host's
// station from the control plane. Unreplicated, this applies
// synchronously at the single controller; replicated, it must commit
// through the leader, so while an election is in flight the proposal
// is retried on a short timer (bounded — a permanently leaderless
// control plane drops the forget, and stale records surface as locate
// failures instead).
func (c *Cluster) ForgetStation(st wire.StationID) {
	c.forgetStation(st, 8)
}

func (c *Cluster) forgetStation(st wire.StationID, tries int) {
	if len(c.Controllers) == 0 {
		return
	}
	if lead := c.LeaderController(); lead != nil {
		lead.Forget(st)
		return
	}
	if tries <= 0 {
		return
	}
	c.Clock.Schedule(250*netsim.Microsecond, func() {
		c.forgetStation(st, tries-1)
	})
}
