// ControlPlane: the replicated-controller redesign. The controller's
// object→station map becomes a state machine replicated with
// internal/raft; MsgAnnounce and MsgLocate become proposals to and
// reads from the consensus leader. A single controller is the
// degenerate one-replica case of the same API — no raft node, no
// extra frames, byte-identical behavior to the original design.
package discovery

import (
	"encoding/binary"
	"fmt"

	"repro/internal/backend"
	"repro/internal/oid"
	"repro/internal/raft"
	"repro/internal/wire"
)

// Op is a state-machine command kind.
type Op byte

// Control-plane operations.
const (
	// OpAnnounce records Object as owned by Owner.
	OpAnnounce Op = 1
	// OpForget drops every object owned by Owner (its host crashed).
	OpForget Op = 2
	// 3 is retired (multicast-group installs): decodeCommand refuses
	// it, as it does any op but the two above.
)

// Command is one control-plane state-machine transition. Commands are
// idempotent (map put / bulk delete), which is what makes raft's
// replay-on-restart and ambiguous-proposal semantics safe.
type Command struct {
	Op     Op
	Object oid.ID
	Owner  wire.StationID
}

// cmdLen is the encoded size of a command: op byte, object ID, owner
// station.
const cmdLen = 1 + oid.Size + wire.StationIDSize

func (cmd Command) encode() []byte {
	b := make([]byte, cmdLen)
	b[0] = byte(cmd.Op)
	cmd.Object.PutBytes(b[1:])
	binary.BigEndian.PutUint16(b[1+oid.Size:], uint16(cmd.Owner))
	return b
}

// decodeCommand parses a committed entry, which arrives from a peer in
// a MsgRaft frame. It refuses any op but OpAnnounce and OpForget.
func decodeCommand(p []byte) (Command, error) {
	if len(p) != cmdLen {
		return Command{}, fmt.Errorf("discovery: bad command length %d", len(p))
	}
	if op := Op(p[0]); op != OpAnnounce && op != OpForget {
		return Command{}, fmt.Errorf("discovery: unknown command op %d", op)
	}
	obj, err := oid.FromBytes(p[1:])
	if err != nil {
		return Command{}, err
	}
	return Command{
		Op:     Op(p[0]),
		Object: obj,
		Owner:  wire.StationID(binary.BigEndian.Uint16(p[1+oid.Size:])),
	}, nil
}

// notLeaderStatus is the reply status byte a follower replica sends
// for MsgAnnounce/MsgLocate; the payload carries the believed
// leader's station (0 when unknown) for client redirect.
const notLeaderStatus byte = 2

// installDelay models rule compilation and switch programming: every
// rule install the controller performs lands this long after the
// decision, on the (out-of-band) control channel.
const installDelay = 20 * backend.Microsecond

// --- Control-plane service: the same calls whether or not the
// controller is replicated ---

// Propose submits a state-machine command; done (optional) fires once
// it is applied — synchronously when unreplicated, after consensus
// otherwise — or with an error wrapping gasperr.ErrNotLeader if this
// replica cannot commit it.
func (c *Controller) Propose(cmd Command, done func(error)) {
	if c.raft == nil {
		c.apply(cmd)
		if done != nil {
			done(nil)
		}
		return
	}
	c.raft.Propose(cmd.encode(), func(_ uint64, err error) {
		if done != nil {
			done(err)
		}
	})
}

// Lookup reads the applied state: the recorded owner of obj.
func (c *Controller) Lookup(obj oid.ID) (wire.StationID, bool) {
	owner, ok := c.objects[obj]
	return owner, ok
}

// Leader returns the station this replica believes leads (itself,
// when unreplicated), and whether any leader is known.
func (c *Controller) Leader() (wire.StationID, bool) {
	if c.raft == nil {
		return c.ep.Station(), true
	}
	return c.raft.Leader()
}

// IsLeader reports whether this replica can currently commit
// proposals.
func (c *Controller) IsLeader() bool {
	if c.raft == nil {
		return true
	}
	return c.raft.Running() && c.raft.State() == raft.Leader
}

// Raft exposes the consensus node (nil for the degenerate
// single-replica controller) for fault injection and invariant
// checking.
func (c *Controller) Raft() *raft.Node { return c.raft }

// applyCommand is the raft Apply hook: it decodes a committed log
// entry and applies it.
func (c *Controller) applyCommand(_ uint64, p []byte) {
	if cmd, err := decodeCommand(p); err == nil {
		c.apply(cmd)
	}
}

// apply executes one committed command — unreplicated, straight from
// Propose. Every mutation of the object map happens here, so all
// replicas converge on the same applied state.
func (c *Controller) apply(cmd Command) {
	switch cmd.Op {
	case OpAnnounce:
		c.objects[cmd.Object] = cmd.Owner
	case OpForget:
		for obj, owner := range c.objects {
			if owner == cmd.Owner {
				delete(c.objects, obj)
			}
		}
	}
}

// onLeaderChange reinstalls every applied object's switch rules when
// this replica wins an election: rules driven by the previous leader
// may be missing or stale, and rule-programming is idempotent.
func (c *Controller) onLeaderChange(_ wire.StationID, self bool) {
	if self {
		c.ReinstallAll()
	}
}

// Crash models this replica's process dying: the raft node loses its
// volatile state (the log and term survive, as if persisted) and the
// applied object map — rebuilt by log replay — is discarded. The
// caller is expected to also cut the replica's link.
func (c *Controller) Crash() {
	if c.raft != nil {
		c.raft.Stop()
	}
	c.objects = make(map[oid.ID]wire.StationID)
}

// Restart revives a crashed replica as a follower; catching up on the
// log replays every committed command into the fresh object map.
func (c *Controller) Restart() {
	if c.raft != nil {
		c.raft.Restart()
	}
}

// respondNotLeader answers a client request this replica cannot serve:
// status byte then the believed leader's station (0 if unknown). A
// leader not yet ready to read names itself, so the client asks it
// again after its retry delay instead of touring the followers.
func (c *Controller) respondNotLeader(req *wire.Header, ackType wire.MsgType) {
	reply := make([]byte, 1+wire.StationIDSize)
	reply[0] = notLeaderStatus
	if l, ok := c.Leader(); ok {
		binary.BigEndian.PutUint16(reply[1:], uint16(l))
	}
	c.ep.Respond(req, wire.Header{Type: ackType, Object: req.Object}, reply)
}

// handleAnnounce serves MsgAnnounce: the ownership record must commit
// (through raft when replicated) before rules install and the ack
// releases the announcing host.
func (c *Controller) handleAnnounce(h *wire.Header) {
	req := *h
	if !c.IsLeader() {
		c.respondNotLeader(&req, wire.MsgAnnounceAck)
		return
	}
	c.counters.Announces++
	obj, owner := req.Object, req.Src
	sp := c.installSpan(&req)
	c.Propose(Command{Op: OpAnnounce, Object: obj, Owner: owner}, func(err error) {
		if err != nil {
			// Deposed mid-proposal: the entry may still commit under
			// the next leader (and the command is idempotent); tell
			// the client to re-announce there.
			sp.SetAttr("status", "not-leader")
			sp.End()
			c.respondNotLeader(&req, wire.MsgAnnounceAck)
			return
		}
		c.clock.Schedule(installDelay, func() {
			status := c.installObject(obj, owner)
			sp.SetAttr("status", installStatus(status))
			sp.End()
			// The ack carries whether rules are fully installed, so hosts
			// can fall back for objects the tables could not hold.
			c.ep.Respond(&req, wire.Header{Type: wire.MsgAnnounceAck, Object: obj}, []byte{status})
		})
	})
}

// handleLocate serves MsgLocate: a linearizable-enough read of the
// applied map at the leader (followers redirect, and so does a leader
// that has not yet applied its own term's first entry: its map may lack
// announces the previous leader committed, and "unknown object" would
// fail the client fast on a record that exists).
func (c *Controller) handleLocate(h *wire.Header) {
	req := *h
	if c.raft != nil && !c.raft.ReadReady() {
		c.respondNotLeader(&req, wire.MsgLocateReply)
		return
	}
	obj := req.Object
	owner, known := c.objects[obj]
	if !known {
		// Unknown object: answer immediately so the client can fail
		// fast (status 1, no owner).
		c.ep.Respond(&req, wire.Header{Type: wire.MsgLocateReply, Object: obj}, []byte{1})
		return
	}
	sp := c.installSpan(&req)
	c.clock.Schedule(installDelay, func() {
		status := c.installObject(obj, owner)
		sp.SetAttr("status", installStatus(status))
		sp.End()
		reply := make([]byte, locateReplyLen)
		reply[0] = status
		binary.BigEndian.PutUint16(reply[1:], uint16(owner))
		c.ep.Respond(&req, wire.Header{Type: wire.MsgLocateReply, Object: obj}, reply)
	})
}

// Redirects reports how many not-leader replies and membership
// rotations the client has followed.
func (cc *ControllerClient) Redirects() uint64 { return cc.redirects }

// rotate moves to the next membership entry (no-op unreplicated).
func (cc *ControllerClient) rotate() {
	if len(cc.controllers) > 1 {
		cc.cur = (cc.cur + 1) % len(cc.controllers)
	}
}

// redirect follows a not-leader reply's hint, falling back to
// rotation when the follower did not know a leader either.
func (cc *ControllerClient) redirect(payload []byte) {
	cc.redirects++
	if len(payload) >= 1+wire.StationIDSize {
		hint := wire.StationID(binary.BigEndian.Uint16(payload[1:]))
		if hint != 0 {
			for i, st := range cc.controllers {
				if st == hint {
					cc.cur = i
					return
				}
			}
		}
	}
	cc.rotate()
}
