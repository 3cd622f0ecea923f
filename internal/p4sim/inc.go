package p4sim

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// In-network computation (INC): the paper's §5 argues that once the
// fabric routes on object identity, switches can run application work
// — caching, multicast, aggregation — inside the pipeline, in the
// spirit of NetRPC and NetChain. The computations themselves live in
// internal/inc (above the backend seam) and internal/netseq; this file
// is the pipeline's one attachment point: an IncProgram sees every
// ingress frame before the forwarding decision and may consume it,
// plus the helpers a program needs to originate frames from the switch.

// INC action types, dispatched by the program's own compiled
// match-action classifier (see internal/inc).
const (
	// ActIncCache marks frames the in-switch object cache inspects
	// (memory reads it may serve, responses it may learn from).
	ActIncCache ActionType = 101
	// ActIncGroup marks multicast invalidations the switch replicates
	// along the spanning tree from its group table.
	ActIncGroup ActionType = 102
	// ActIncAgg marks invalidate-acks the switch may coalesce into an
	// aggregated ack.
	ActIncAgg ActionType = 103
)

// IncProgram is a switch-resident computation attached to the ingress
// pipeline. HandleFrame runs after source learning and before the
// forwarding decision; returning true consumes the frame (the program
// served, replicated, or absorbed it), false lets it continue through
// the normal match-action program. A program that stores frame bytes
// must copy them — the buffer is recycled when ingress returns.
type IncProgram interface {
	HandleFrame(ingress int, h *wire.Header, fr netsim.Frame) bool
}

// SetIncProgram attaches an INC program to the switch (nil detaches).
func (sw *Switch) SetIncProgram(p IncProgram) { sw.inc = p }

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
	sw.net.Sim().Schedule(sw.cfg.PipelineDelay, func() {
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

// IncGroupTable is implemented by INC programs that hold a multicast
// group table the control plane installs into.
type IncGroupTable interface {
	InstallGroup(id uint64, members []wire.StationID)
}

// InstallIncGroup programs a multicast group into the attached INC
// program — the controller-facing entry point, symmetric with
// InstallObjectRoute.
func (sw *Switch) InstallIncGroup(id uint64, members []wire.StationID) error {
	gt, ok := sw.inc.(IncGroupTable)
	if !ok {
		return fmt.Errorf("p4sim: switch %s has no INC group table", sw.name)
	}
	gt.InstallGroup(id, members)
	return nil
}
