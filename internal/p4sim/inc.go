package p4sim

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

// In-network computation (INC, §5): once the fabric routes on object
// identity, switches can run application work inside the pipeline. The
// programs live in internal/inc; this file is the pipeline's side — an
// ordered program list that sees every ingress frame before the
// forwarding decision, the multicast group table, and the helpers a
// program needs to originate frames from the switch.

// IncProgram is a switch-resident computation attached to the ingress
// pipeline. HandleFrame runs after source learning and before the
// forwarding decision; returning true consumes the frame (the program
// served, replicated, or absorbed it), false offers it to the next
// program and then the normal match-action tables. h is read-only (it
// may be the header the frame's buffer carries on to later hops). A
// program that stores frame bytes must copy them — the buffer is
// recycled when ingress returns.
type IncProgram interface {
	HandleFrame(ingress int, h *wire.Header, fr netsim.Frame) bool
}

// AddIncProgram appends p to the switch's program list. Ingress offers
// each parsed frame to the programs in attachment order; the first to
// claim it consumes it.
func (sw *Switch) AddIncProgram(p IncProgram) { sw.inc = append(sw.inc, p) }

// Station returns the switch's station identity (0 = none). Programs
// that originate frames need it for the source field.
func (sw *Switch) Station() wire.StationID { return sw.cfg.Station }

// NextReplySeq returns a fresh sequence number for a frame the switch
// itself originates, so every switch-sourced frame is uniquely
// numbered.
func (sw *Switch) NextReplySeq() uint64 {
	sw.replySeq++
	return sw.replySeq
}

// EmitFrame transmits a switch-originated frame out port after the
// pipeline delay. Unconnected ports count as drops.
func (sw *Switch) EmitFrame(port int, fr netsim.Frame) {
	if !sw.net.Connected(sw, port) {
		sw.counters.Dropped++
		return
	}
	sw.counters.FramesOut++
	sw.net.Sim().Schedule(pipelineDelay, func() {
		sw.net.Send(sw, port, fr)
	})
}

// FloodFrame emits fr on every connected port except skip (pass a
// negative skip to flood all ports).
func (sw *Switch) FloodFrame(skip int, fr netsim.Frame) {
	sw.counters.Flooded++
	n := sw.net.NumPorts(sw)
	for p := 0; p < n; p++ {
		if p == skip || !sw.net.Connected(sw, p) {
			continue
		}
		sw.EmitFrame(p, fr)
	}
}

// StationPort reports the egress port toward st from the station
// table (false when the station is unknown or not a plain forward).
func (sw *Switch) StationPort(st wire.StationID) (int, bool) {
	act, ok := sw.stationTable.Lookup(&wire.Header{Dst: st})
	if !ok || act.Type != ActForward {
		return 0, false
	}
	return act.Port, true
}

// ScheduleAfter runs fn after d on the switch's clock — the timer an
// aggregation program arms for its flush path.
func (sw *Switch) ScheduleAfter(d netsim.Duration, fn func()) {
	sw.net.Sim().Schedule(d, fn)
}

// InstallIncGroup programs a multicast group into the switch's
// replication table, like a P4 replication engine's — the
// controller-facing entry point, symmetric with InstallObjectRoute.
// Member order is the ack-bitmap order a program aggregates by.
func (sw *Switch) InstallIncGroup(id uint64, members []wire.StationID) {
	if sw.groups == nil {
		sw.groups = make(map[uint64][]wire.StationID)
	}
	sw.groups[id] = append([]wire.StationID(nil), members...)
}

// Group returns a multicast group's members (false when the control
// plane never installed it). A reinstall replaces the slice, never
// edits it, so a program may hold on to it.
func (sw *Switch) Group(id uint64) ([]wire.StationID, bool) {
	members, ok := sw.groups[id]
	return members, ok
}
