package p4sim

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SwitchConfig configures a switch's data plane.
type SwitchConfig struct {
	// ObjectTableMemory is the SRAM budget for the object-routing
	// table (0 = DefaultTableMemory, negative = unlimited).
	ObjectTableMemory int
	// LearnStations enables data-plane source-station learning
	// (L2-learning analogue), required by the E2E scheme.
	LearnStations bool
	// ObjectEviction selects what the object table does at SRAM
	// capacity: reject installs (EvictNone, the default), or recycle
	// entries LRU-style so a hot working set stays resident
	// under table pressure.
	ObjectEviction EvictionPolicy
	// ObjectMiss selects the fallback for object-routed frames that
	// miss the object table and carry no concrete destination
	// (Dst == StationAny): drop (default; sender times out and
	// rediscovers), flood, or punt to the controller CPU port. The
	// choice is the measured flood-vs-punt tradeoff of E12.
	ObjectMiss MissPolicy
	// PuntUplink redirects ActToController out port 0 (the uplink in a
	// leaf-spine fabric) instead of the local CPU port, so punts from
	// edge switches climb toward the switch whose CPU port hosts the
	// shard manager.
	PuntUplink bool
}

// TablesConfig sizes and governs the object and shard-filter tables of
// every switch in a fabric. The zero value is the default model:
// default SRAM budgets, reject at capacity, drop on a miss.
type TablesConfig struct {
	// ObjectMemory is the object table's SRAM budget (0 =
	// DefaultTableMemory, negative = unlimited).
	ObjectMemory int
	// FilterMemory is the SRAM budget of the filter table holding the
	// sharded scheme's aggregated shard rules (0 = DefaultTableMemory,
	// negative = unlimited).
	FilterMemory int
	// Eviction is both tables' at-capacity policy.
	Eviction EvictionPolicy
	// ObjectMiss is the fallback for object-routed frames that miss.
	ObjectMiss MissPolicy
}

// Validate refuses a policy value that names no policy.
func (c TablesConfig) Validate() error {
	if c.Eviction > EvictLRU {
		return fmt.Errorf("p4sim: Eviction %v is not a policy", c.Eviction)
	}
	if c.ObjectMiss > MissPunt {
		return fmt.Errorf("p4sim: ObjectMiss %v is not a policy", c.ObjectMiss)
	}
	return nil
}

// MissPolicy selects the object-table miss fallback for frames with
// no concrete destination station.
type MissPolicy uint8

// Miss policies.
const (
	// MissDrop discards the frame (the pre-existing behavior and the
	// zero value): the sender's timeout drives rediscovery.
	MissDrop MissPolicy = iota
	// MissFlood floods the frame like unknown unicast. Every miss
	// costs fabric bandwidth on all ports, but the object is found in
	// one round trip.
	MissFlood
	// MissPunt forwards the frame to the controller CPU port, which
	// can reinstall the rule and forward — slower per miss, no
	// fabric-wide amplification.
	MissPunt
)

// String names the miss policy.
func (p MissPolicy) String() string {
	switch p {
	case MissDrop:
		return "drop"
	case MissFlood:
		return "flood"
	case MissPunt:
		return "punt"
	}
	return fmt.Sprintf("miss(%d)", uint8(p))
}

const (
	// pipelineDelay is the per-frame processing latency ("switch
	// processing overhead is minimal", §4).
	pipelineDelay = netsim.Microsecond
	// seenCapacity bounds the broadcast dedup filter (a P4 register
	// array).
	seenCapacity = 8192
)

// Counters aggregates switch data-plane statistics. Each ingress frame
// ends in one of ParseDrops, Dropped, Unsent, Flooded, ToController or
// a forward.
type Counters struct {
	FramesIn      uint64
	FramesOut     uint64
	Flooded       uint64 // flood events (one per frame flooded)
	ObjectHits    uint64
	ObjectMisses  uint64
	StationHits   uint64
	ParseDrops    uint64
	Dropped       uint64
	Unsent        uint64 // floods and punts that found no eligible port
	ToController  uint64
	LearnedHosts  uint64
	LearnFailures uint64 // station table full
	FilterHits    uint64 // packet-subscription filter matches
	MissFloods    uint64 // object-table misses resolved by flooding
	MissPunts     uint64 // object-table misses punted to the controller
}

// Switch is a store-and-forward device running a fixed object-routing
// program over programmable tables:
//
//  1. broadcast destinations flood;
//  2. frames flagged route-on-object consult the object table;
//  3. otherwise (or on miss) the station table forwards to the
//     destination station;
//  4. unknown unicast floods (so discovery works before learning).
type Switch struct {
	name string
	net  *netsim.Network
	att  *netsim.Attachment // what the switch transmits through
	cfg  SwitchConfig

	objTable     *Table
	stationTable *Table
	filterTable  *Table // optional packet-subscription filters
	counters     Counters

	// Broadcast dedup filter (P4-register analogue) so flooded frames
	// do not storm in topologies with loops: a bounded ring of
	// recently seen (src, seq, type) tuples. The map grows as needed:
	// most switches see few broadcasts.
	seen     map[bcastKey]struct{}
	seenRing []bcastKey
	seenNext int

	// rxHdr is the ingress parse scratch, reused across frames so a
	// parse allocates nothing. Safe because the simulator is
	// single-threaded and onward sends are scheduled, never synchronous
	// re-entries into this switch.
	rxHdr wire.Header

	// probe, when set, sees every parsed frame before the forwarding
	// decision, with the header the switch routes it on. Only tests set
	// it (SetProbe).
	probe func(h *wire.Header, fr netsim.Frame)

	tracer *trace.Recorder
}

// NewSwitch creates and registers a switch with numPorts ports.
func NewSwitch(net *netsim.Network, name string, numPorts int, cfg SwitchConfig) (*Switch, error) {
	objTable, err := NewTable(name+"/obj", []Key{{Field: wire.FieldObject, Kind: MatchExact}},
		TableConfig{MemoryBytes: cfg.ObjectTableMemory, Eviction: cfg.ObjectEviction})
	if err != nil {
		return nil, err
	}
	stTable, err := NewTable(name+"/station", []Key{{Field: wire.FieldDst, Kind: MatchExact}},
		TableConfig{})
	if err != nil {
		return nil, err
	}
	sw := &Switch{
		name: name, net: net, cfg: cfg,
		objTable: objTable, stationTable: stTable,
		seen:     make(map[bcastKey]struct{}),
		seenRing: make([]bcastKey, seenCapacity),
	}
	if sw.att, err = net.AddDevice(sw, numPorts); err != nil {
		return nil, err
	}
	return sw, nil
}

// DevName implements netsim.Device.
func (sw *Switch) DevName() string { return sw.name }

// ObjectTable exposes the object-routing table to control planes.
func (sw *Switch) ObjectTable() *Table { return sw.objTable }

// StationTable exposes the station-forwarding table.
func (sw *Switch) StationTable() *Table { return sw.stationTable }

// SetFilterTable installs a filter table of ternary rules (the
// sharded scheme's prefix routes, see discovery.CompileShardRoutes);
// it is consulted before normal forwarding, and a hit overrides the
// forwarding decision — what the fabric keeps of Packet Subscriptions
// [17]. Pass nil to remove.
func (sw *Switch) SetFilterTable(t *Table) { sw.filterTable = t }

// FilterTable returns the installed filter table (nil if none).
func (sw *Switch) FilterTable() *Table { return sw.filterTable }

// SetTracer attaches a span recorder: every traced frame through the
// pipeline gets a switch span annotated with its table lookups.
func (sw *Switch) SetTracer(r *trace.Recorder) { sw.tracer = r }

// Counters returns a copy of the switch counters.
func (sw *Switch) Counters() Counters { return sw.counters }

// ResetCounters zeroes the counters.
func (sw *Switch) ResetCounters() { sw.counters = Counters{} }

// InstallObjectRoute programs object→port forwarding (the controller
// scheme's rule, §4).
func (sw *Switch) InstallObjectRoute(h wire.Value, port int) error {
	return sw.objTable.Insert(Entry{
		Match:  []KeyValue{{Value: h}},
		Action: Action{Type: ActForward, Port: port},
	})
}

// InstallStationRoute programs station→port forwarding.
func (sw *Switch) InstallStationRoute(st wire.StationID, port int) error {
	return sw.stationTable.Insert(Entry{
		Match:  []KeyValue{{Value: wire.ValueOf(uint64(st))}},
		Action: Action{Type: ActForward, Port: port},
	})
}

// WipeTables clears both match-action tables, modeling a switch
// reboot or control-plane fault that loses programmed state. The
// filter table (a separate control plane) is left alone. Forwarding
// degrades to flooding/learning until rules are re-installed.
func (sw *Switch) WipeTables() {
	sw.objTable.Clear()
	sw.stationTable.Clear()
}

// Recv implements netsim.Device: the ingress pipeline for unpooled
// frames.
func (sw *Switch) Recv(port int, fr netsim.Frame) {
	sw.ingress(port, fr, nil)
}

// RecvBuf implements netsim.BufReceiver: pooled frames enter the same
// pipeline, and emit passes the network's reference on or releases it.
func (sw *Switch) RecvBuf(port int, fr netsim.Frame, buf netsim.FrameBuffer) {
	sw.ingress(port, fr, buf)
}

// ingress runs the pipeline on one frame. A pooled frame that carries
// the header it was encoded with is not parsed again: its header bytes
// have not changed since (see dataplane's ownership rules).
func (sw *Switch) ingress(port int, fr netsim.Frame, buf netsim.FrameBuffer) {
	sw.counters.FramesIn++
	h := &sw.rxHdr
	if b, ok := buf.(*dataplane.Buf); ok && b.Header() != nil {
		h = b.Header()
	} else if err := h.DecodeFrom(fr); err != nil {
		sw.counters.ParseDrops++
		release(buf)
		return
	}

	// Source-station learning (data plane).
	if sw.cfg.LearnStations && h.Src != wire.StationBroadcast {
		if _, known := sw.stationTable.Lookup(&wire.Header{Dst: h.Src}); !known {
			err := sw.stationTable.Insert(Entry{
				Match:  []KeyValue{{Value: wire.ValueOf(uint64(h.Src))}},
				Action: Action{Type: ActForward, Port: port},
			})
			if err != nil {
				sw.counters.LearnFailures++
			} else {
				sw.counters.LearnedHosts++
			}
		}
	}

	if sw.probe != nil {
		sw.probe(h, fr)
	}

	var sp *trace.Span
	if sw.tracer != nil && h.Flags&wire.FlagTraced != 0 {
		sp = sw.tracer.StartSpan(trace.Ctx{Trace: h.TraceID, Span: h.SpanID},
			trace.KindSwitch, "sw:"+sw.name)
	}
	act := sw.decide(h, sp)
	if act.Type == ActDrop {
		sp.SetAttr("action", "drop")
		sp.End()
	} else {
		// The frame occupies the pipeline until it is emitted.
		sp.EndAt(sw.net.Sim().Now().Add(pipelineDelay))
	}
	sw.emit(port, fr, buf, act)
}

// bcastKey identifies a broadcast frame for duplicate suppression.
type bcastKey struct {
	src wire.StationID
	seq uint64
	typ wire.MsgType
}

// dupBroadcast records the frame and reports whether it was already
// seen (i.e., it is re-entering this switch through a topology loop).
func (sw *Switch) dupBroadcast(h *wire.Header) bool {
	k := bcastKey{src: h.Src, seq: h.Seq, typ: h.Type}
	if _, dup := sw.seen[k]; dup {
		return true
	}
	old := sw.seenRing[sw.seenNext]
	if old != (bcastKey{}) {
		delete(sw.seen, old)
	}
	sw.seenRing[sw.seenNext] = k
	sw.seenNext = (sw.seenNext + 1) % seenCapacity
	sw.seen[k] = struct{}{}
	return false
}

// decide runs the match-action program. sp (nil when untraced) is
// annotated with every table consulted and its hit/miss outcome.
func (sw *Switch) decide(h *wire.Header, sp *trace.Span) Action {
	// Duplicate suppression first so pub/sub actions on broadcast
	// frames cannot loop.
	if h.Dst == wire.StationBroadcast && sw.dupBroadcast(h) {
		sp.SetAttr("bcast", "dup")
		return Action{Type: ActDrop}
	}
	if sw.filterTable != nil {
		if act, ok := sw.filterTable.Lookup(h); ok {
			sw.counters.FilterHits++
			sp.SetAttr("filter", "hit")
			return act
		}
		sp.SetAttr("filter", "miss")
	}
	if h.Dst == wire.StationBroadcast {
		sp.SetAttr("action", "flood")
		return Action{Type: ActFlood}
	}
	if h.Flags&wire.FlagRouteOnObject != 0 {
		if act, ok := sw.objTable.Lookup(h); ok {
			sw.counters.ObjectHits++
			sp.SetAttr("obj", "hit")
			return act
		}
		sw.counters.ObjectMisses++
		sp.SetAttr("obj", "miss")
		// An object-routed frame with no concrete destination cannot
		// fall back to station forwarding. The configured miss policy
		// decides its fate: drop (sender times out and rediscovers),
		// flood (finds the object at fabric-bandwidth cost), or punt
		// to the controller CPU port.
		if h.Dst == wire.StationAny {
			switch sw.cfg.ObjectMiss {
			case MissFlood:
				// Miss-floods go through the dedup filter so a frame
				// flooded back to this switch (e.g. over a parallel
				// punt link) cannot storm.
				if sw.dupBroadcast(h) {
					sp.SetAttr("action", "miss-flood-dup")
					return Action{Type: ActDrop}
				}
				sw.counters.MissFloods++
				sp.SetAttr("action", "miss-flood")
				return Action{Type: ActFlood}
			case MissPunt:
				sw.counters.MissPunts++
				sp.SetAttr("action", "miss-punt")
				return Action{Type: ActToController}
			default:
				return Action{Type: ActDrop}
			}
		}
	}
	if act, ok := sw.stationTable.Lookup(h); ok {
		sw.counters.StationHits++
		sp.SetAttr("station", "hit")
		return act
	}
	// Unknown unicast: flood so it still reaches its station.
	sp.SetAttr("station", "miss")
	sp.SetAttr("action", "flood")
	return Action{Type: ActFlood}
}

// emit executes a forwarding decision and consumes the arriving
// reference to buf (nil if unpooled): a forward passes it on; a flood or
// punt retains once per copy, then releases it, as every drop does.
func (sw *Switch) emit(ingress int, fr netsim.Frame, buf netsim.FrameBuffer, act Action) {
	if act.Type == ActForward && act.Port != ingress {
		sw.counters.FramesOut++
		sw.net.SendBufAfter(sw.att, act.Port, fr, buf, pipelineDelay)
		return
	}
	out := sw.counters.FramesOut
	send := func(port int) {
		sw.counters.FramesOut++
		if buf != nil {
			buf.Retain()
		}
		sw.net.SendBufAfter(sw.att, port, fr, buf, pipelineDelay)
	}
	switch act.Type {
	case ActFlood:
		n := sw.net.NumPorts(sw)
		for p := 0; p < n; p++ {
			if p != ingress && sw.net.Connected(sw, p) {
				send(p)
			}
		}
	case ActToController:
		// The CPU port is conventionally the highest-numbered port;
		// edge switches may instead punt up their uplink.
		cpu := sw.net.NumPorts(sw) - 1
		if sw.cfg.PuntUplink {
			cpu = 0
		}
		if cpu != ingress && sw.net.Connected(sw, cpu) {
			send(cpu)
		}
	}
	switch {
	case act.Type != ActFlood && act.Type != ActToController:
		sw.counters.Dropped++ // a drop, or a forward back out the ingress port (a loop)
	case sw.counters.FramesOut == out:
		sw.counters.Unsent++
	case act.Type == ActFlood:
		sw.counters.Flooded++
	default:
		sw.counters.ToController++
	}
	release(buf)
}

// release drops a reference to buf, if the frame has one.
func release(buf netsim.FrameBuffer) {
	if buf != nil {
		buf.Release()
	}
}

// String describes the switch.
func (sw *Switch) String() string {
	return fmt.Sprintf("switch %s (obj %d/%d entries, station %d entries)",
		sw.name, sw.objTable.Len(), sw.objTable.Capacity(), sw.stationTable.Len())
}
