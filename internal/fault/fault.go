// Package fault is a deterministic fault-schedule engine over the
// netsim virtual clock: node crashes and restarts, link failures,
// flaps and degradation, and switch table wipes, all injected at
// scripted virtual times into a core.Cluster.
//
// The paper's §5 claims the data-centric model "masks failures" —
// replicated objects keep their identity, and the system promotes a
// replica when the home dies. This package is the substrate that
// claim is tested against: a Schedule scripts *what* breaks *when*; an
// Injector arms the script on the simulator clock, performs the
// recovery orchestration a control plane would (replica promotion
// after a detection delay, controller table repair after a wipe), and
// counts what it promoted and what was lost. Everything runs on
// virtual time from a seeded simulation, so a given (schedule, seed)
// pair replays bit-identically.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/oid"
)

// Kind classifies a scripted fault.
type Kind int

// Fault kinds.
const (
	// KindCrash fail-stops a node: link down + all volatile state lost.
	KindCrash Kind = iota
	// KindRestart brings a crashed node back with an empty store.
	KindRestart
	// KindLinkDown partitions a node: link dead, state intact.
	KindLinkDown
	// KindLinkUp heals a partition.
	KindLinkUp
	// KindTableWipe clears a switch's match-action tables.
	KindTableWipe
	// KindCtrlCrash fail-stops a control-plane replica (Node is the
	// replica index; -1 targets whichever replica leads at fire time).
	KindCtrlCrash
	// KindCtrlRestart revives a crashed control-plane replica (Node is
	// the replica index; -1 revives the last one this injector
	// crashed).
	KindCtrlRestart
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	case KindLinkDown:
		return "link-down"
	case KindLinkUp:
		return "link-up"
	case KindTableWipe:
		return "table-wipe"
	case KindCtrlCrash:
		return "ctrl-crash"
	case KindCtrlRestart:
		return "ctrl-restart"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scripted fault.
type Event struct {
	// At is the virtual time offset (from arming) at which the fault
	// fires.
	At netsim.Duration
	// Kind selects the fault.
	Kind Kind
	// Node is the target node index (crash/restart/link faults).
	Node int
	// Switch is the target switch index for KindTableWipe; -1 wipes
	// every switch.
	Switch int
}

// Schedule is an ordered fault script, built fluently:
//
//	s := fault.NewSchedule().
//		CrashNode(2*netsim.Millisecond, 1).
//		RestartNode(8*netsim.Millisecond, 1).
//		WipeTables(12*netsim.Millisecond, -1)
type Schedule struct {
	events []Event
}

// NewSchedule creates an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// CrashNode scripts a fail-stop of node at offset at.
func (s *Schedule) CrashNode(at netsim.Duration, node int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: KindCrash, Node: node})
	return s
}

// RestartNode scripts a crashed node's return at offset at.
func (s *Schedule) RestartNode(at netsim.Duration, node int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: KindRestart, Node: node})
	return s
}

// LinkDown scripts a partition of node's access link at offset at.
func (s *Schedule) LinkDown(at netsim.Duration, node int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: KindLinkDown, Node: node})
	return s
}

// LinkUp scripts the partition healing at offset at.
func (s *Schedule) LinkUp(at netsim.Duration, node int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: KindLinkUp, Node: node})
	return s
}

// FlapLink scripts a link going down at offset at and returning after
// downFor — the classic flap.
func (s *Schedule) FlapLink(at netsim.Duration, node int, downFor netsim.Duration) *Schedule {
	return s.LinkDown(at, node).LinkUp(at+downFor, node)
}

// WipeTables scripts clearing the match-action tables of switch sw
// (index into Cluster.Switches; -1 = every switch) at offset at.
func (s *Schedule) WipeTables(at netsim.Duration, sw int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: KindTableWipe, Switch: sw})
	return s
}

// CrashController scripts a fail-stop of control-plane replica
// (index into Cluster.Controllers) at offset at.
func (s *Schedule) CrashController(at netsim.Duration, replica int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: KindCtrlCrash, Node: replica})
	return s
}

// CrashLeader scripts a fail-stop of whichever control-plane replica
// leads when the event fires — the canonical HA availability fault.
func (s *Schedule) CrashLeader(at netsim.Duration) *Schedule {
	return s.CrashController(at, -1)
}

// RestartController scripts a crashed control-plane replica's return
// at offset at (-1 revives the injector's most recent control-plane
// crash).
func (s *Schedule) RestartController(at netsim.Duration, replica int) *Schedule {
	s.events = append(s.events, Event{At: at, Kind: KindCtrlRestart, Node: replica})
	return s
}

// Events returns the script sorted by time (stable, so same-time
// events keep insertion order).
func (s *Schedule) Events() []Event {
	out := make([]Event, len(s.events))
	copy(out, s.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the number of scripted events.
func (s *Schedule) Len() int { return len(s.events) }

// Recovery orchestration timing.
const (
	// promotionDelay models failure detection plus promotion decision
	// time: how long after a crash surviving replicas of the dead
	// home's objects are promoted.
	promotionDelay = 500 * netsim.Microsecond
	// repairDelay models the controller noticing a table wipe and
	// replaying its rules. Only meaningful when the cluster runs a
	// controller; under pure E2E the fabric re-learns on its own.
	repairDelay = 200 * netsim.Microsecond
)

// Injector arms a Schedule against a cluster and orchestrates
// recovery.
type Injector struct {
	cluster *core.Cluster

	promotions int
	lost       []oid.ID
	// lastCtrlCrashed remembers the most recent KindCtrlCrash target
	// so a RestartController(-1) pairs with a CrashLeader whose actual
	// victim was only decided at fire time.
	lastCtrlCrashed int
}

// NewInjector creates an injector for c. Arm schedules the script.
// Fault injection is sim-only: it crashes simulated hosts, forces
// link state, and wipes simulated switch tables — none of which exist
// under the realnet backend, so a realnet cluster is refused loudly
// here rather than nil-panicking at Arm time.
func NewInjector(c *core.Cluster) *Injector {
	if c.Sim == nil || c.Net == nil {
		panic("fault: injection is sim-only (crashes, link state, and table wipes act on the simulated network); use a BackendSim cluster")
	}
	return &Injector{cluster: c}
}

// Arm schedules every event of sched on the cluster's virtual clock,
// relative to the current virtual time. It may be called once per
// schedule; arming multiple schedules composes.
func (inj *Injector) Arm(sched *Schedule) {
	for _, ev := range sched.Events() {
		ev := ev
		inj.cluster.Sim.Schedule(ev.At, func() { inj.fire(ev) })
	}
}

// fire applies one event and schedules its recovery actions.
func (inj *Injector) fire(ev Event) {
	c := inj.cluster
	switch ev.Kind {
	case KindCrash:
		homed := c.CrashNode(ev.Node)
		// The control plane's liveness detection sees the port die and
		// drops ownership records, so locates fail fast instead of
		// routing into a black hole. Under a replicated control plane
		// the forget commits through the current leader.
		c.ForgetStation(c.Nodes[ev.Node].Station)
		c.Sim.Schedule(promotionDelay, func() { inj.promote(homed) })
	case KindRestart:
		c.RestartNode(ev.Node)
	case KindLinkDown:
		c.Net.SetLinkDown(c.Nodes[ev.Node].Host, 0, true)
	case KindLinkUp:
		c.Net.SetLinkDown(c.Nodes[ev.Node].Host, 0, false)
	case KindTableWipe:
		for i, sw := range c.Switches {
			if ev.Switch >= 0 && i != ev.Switch {
				continue
			}
			sw.WipeTables()
		}
		if len(c.Controllers) > 0 {
			c.Sim.Schedule(repairDelay, func() {
				// The leading replica replays station routes first (so
				// replies unicast again), then object rules. With no
				// leader mid-election, the next leader's ReinstallAll
				// covers the wipe anyway.
				if lead := c.LeaderController(); lead != nil {
					lead.ProgramStationTables()
					lead.ReinstallAll()
				}
			})
		}
	case KindCtrlCrash:
		idx := ev.Node
		if idx < 0 {
			idx = c.ControlLeaderIndex()
			if idx < 0 {
				return // no control-plane leader to kill
			}
		}
		c.CrashController(idx)
		inj.lastCtrlCrashed = idx
	case KindCtrlRestart:
		idx := ev.Node
		if idx < 0 {
			idx = inj.lastCtrlCrashed
		}
		c.RestartController(idx)
	}
}

// promote walks the dead home's objects and promotes the
// lowest-station surviving replica of each; objects with no surviving
// copy are recorded as lost.
func (inj *Injector) promote(homed []oid.ID) {
	c := inj.cluster
	for _, obj := range homed {
		var target *core.Node
		for _, n := range c.Nodes {
			if n.Down() || !n.Store.Contains(obj) {
				continue
			}
			if target == nil || n.Station < target.Station {
				target = n
			}
		}
		// No surviving copy, or one that could not be made the home:
		// either way the object has no home any more.
		if target == nil || c.PromoteReplica(obj, target) != nil {
			inj.lost = append(inj.lost, obj)
			continue
		}
		inj.promotions++
	}
}

// Promotions reports how many replicas were promoted to home.
func (inj *Injector) Promotions() int { return inj.promotions }

// Lost returns objects whose every copy died with a crashed node.
func (inj *Injector) Lost() []oid.ID {
	out := make([]oid.ID, len(inj.lost))
	copy(out, inj.lost)
	return out
}
