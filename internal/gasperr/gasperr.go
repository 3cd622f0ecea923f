// Package gasperr defines the sentinel error taxonomy shared by every
// layer of the stack. Subsystems (transport, discovery, coherence,
// p4sim, core) keep their own descriptive errors but wrap one of these
// sentinels, so callers can classify a failure with errors.Is without
// knowing which layer produced it:
//
//	if errors.Is(err, gasperr.ErrUnreachable) { retryElsewhere() }
//
// The taxonomy is deliberately small — five classes cover every
// recoverable failure the fault engine injects:
//
//   - ErrNotFound: the object (or route, or directory entry) does not
//     exist anywhere the resolver can see. Retrying without a topology
//     change will not help.
//   - ErrTimeout: a bounded wait elapsed. The operation may have taken
//     effect; the caller must treat it as ambiguous.
//   - ErrUnreachable: delivery itself failed — retransmission budget
//     exhausted, link down, or peer crashed. Retrying after
//     re-discovery may succeed.
//   - ErrTableFull: an in-network match-action table has no free
//     capacity. Falling back to an end-to-end path is the remedy.
//   - ErrNotLeader: a replicated control plane rejected a proposal
//     because this replica is not the leader. Redirecting to the
//     leader (or retrying after an election settles) succeeds.
package gasperr

import "errors"

var (
	// ErrNotFound reports that the referenced object is unknown.
	ErrNotFound = errors.New("object not found")
	// ErrTimeout reports that a bounded wait elapsed with no answer.
	ErrTimeout = errors.New("timed out")
	// ErrUnreachable reports that delivery to the peer failed outright.
	ErrUnreachable = errors.New("peer unreachable")
	// ErrTableFull reports that a switch match-action table is at capacity.
	ErrTableFull = errors.New("table full")
	// ErrNotLeader reports that a replicated control-plane request
	// reached a follower; the caller should redirect to the leader.
	ErrNotLeader = errors.New("not the leader")
)
