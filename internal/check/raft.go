// Raft invariants for the replicated control plane (SchemeController
// with Discovery.Replicas above 1). ScanRaft reads only side-effect-free
// raft accessors (TermsLed, CommitIndex, LastApplied, EntryInfo), so
// the checker observes the consensus group without perturbing
// elections or replication.
package check

import (
	"fmt"

	"repro/internal/oid"
	"repro/internal/wire"
)

// Raft invariant names.
const (
	// InvRaftOneLeader: at most one replica ever wins any given term
	// (Raft election safety, checked via the union of per-node
	// TermsLed histories — which survive crashes).
	InvRaftOneLeader = "raft-one-leader"
	// InvRaftCommittedLost: an entry the checker ever observed as
	// committed later disappeared or changed (term or command digest)
	// at a replica that covers its index.
	InvRaftCommittedLost = "raft-committed-lost"
	// InvRaftPrefix: two replicas disagree on an entry both have
	// applied (state-machine divergence).
	InvRaftPrefix = "raft-prefix-agreement"
)

// raftEntryRec identifies one committed log entry.
type raftEntryRec struct {
	term   uint64
	digest uint64
}

// ScanRaft evaluates the consensus invariants over the cluster's
// control-plane replicas. It is a no-op for unreplicated schemes and
// is folded into CheckNow; scenarios may also call it mid-run (e.g.
// right after an election settles).
func (k *Checker) ScanRaft() {
	nodes := k.c.RaftNodes()
	if len(nodes) == 0 {
		return
	}
	now := k.c.Sim.Now()

	// Election safety: the union of every replica's led-term history
	// must assign each term at most one leader. TermsLed persists
	// across Crash/Restart, so even a deposed-and-wiped leader still
	// testifies about the terms it won.
	termLeader := make(map[uint64]wire.StationID)
	for _, n := range nodes {
		for _, t := range n.TermsLed() {
			if prev, ok := termLeader[t]; ok && prev != n.ID() {
				k.report(now, InvRaftOneLeader, oid.ID{}, 0,
					fmt.Sprintf("term %d was won by both station %d and station %d", t, prev, n.ID()))
				continue
			}
			termLeader[t] = n.ID()
		}
	}

	// Committed-never-lost: fold every running replica's committed
	// prefix into the checker's durable record; any later scan that
	// finds a recorded index missing or different has caught a lost
	// or rewritten committed entry.
	for _, n := range nodes {
		if !n.Running() {
			continue
		}
		for idx := uint64(1); idx <= n.CommitIndex(); idx++ {
			term, digest, ok := n.EntryInfo(idx)
			if !ok {
				k.report(now, InvRaftCommittedLost, oid.ID{}, 0,
					fmt.Sprintf("station %d's commit index covers entry %d but its log does not", n.ID(), idx))
				continue
			}
			rec, seen := k.raftCommitted[idx]
			if !seen {
				k.raftCommitted[idx] = raftEntryRec{term, digest}
				continue
			}
			if rec.term != term || rec.digest != digest {
				k.report(now, InvRaftCommittedLost, oid.ID{}, 0,
					fmt.Sprintf("committed entry %d changed at station %d: term %d digest %#x, previously committed as term %d digest %#x",
						idx, n.ID(), term, digest, rec.term, rec.digest))
			}
		}
	}

	// Applied-prefix agreement: any two replicas must agree, entry by
	// entry, on the prefix both have fed to their state machines.
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			if !a.Running() || !b.Running() {
				continue
			}
			lim := a.LastApplied()
			if bl := b.LastApplied(); bl < lim {
				lim = bl
			}
			for idx := uint64(1); idx <= lim; idx++ {
				ta, da, oka := a.EntryInfo(idx)
				tb, db, okb := b.EntryInfo(idx)
				if oka && okb && ta == tb && da == db {
					continue
				}
				k.report(now, InvRaftPrefix, oid.ID{}, 0,
					fmt.Sprintf("stations %d and %d both applied entry %d but disagree on it (term %d/%d, digest %#x/%#x)",
						a.ID(), b.ID(), idx, ta, tb, da, db))
				break // report the first divergence per pair
			}
		}
	}
}
