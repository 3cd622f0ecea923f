// Package raft replicates the control plane's state machine with a
// compact Raft: randomized-timeout leader election, log replication
// with follower catch-up, and a commit index advanced only through
// current-term entries (§5.4.2 of the Raft paper). It exists to make
// the paper's point structural rather than rhetorical: consensus is
// written purely against the backend seam — backend.Clock for timers,
// a transport.Endpoint for frames — so the identical implementation
// runs deterministically under netsim and over UDP under realnet.
//
// Scope is deliberately small: no snapshots, no membership change, no
// disk (a "crash" loses volatile state but keeps term/vote/log, which
// models a persisted store). Messages travel as unreliable MsgRaft
// frames; heartbeats double as retransmission, so no reliable
// transport machinery is layered underneath.
//
// Concurrency: the backend serializes a node's upcalls (frames and
// timers), so Node has no locks. All methods must be called from the
// node's upcall context.
package raft

import (
	"fmt"
	"sort"

	"repro/internal/backend"
	"repro/internal/gasperr"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrNotLeader reports that a proposal reached a replica that is not
// the current leader. It wraps gasperr.ErrNotLeader so callers above
// the discovery layer classify it without importing raft.
var ErrNotLeader = fmt.Errorf("raft: %w", gasperr.ErrNotLeader)

// State is a replica's role in the current term.
type State int

// Raft roles.
const (
	Follower State = iota
	Candidate
	Leader
)

// String names the state for traces and telemetry.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Entry is one log slot: the term it was appended under and an opaque
// command for the state machine. An empty Cmd is the no-op a fresh
// leader appends to commit its term (it is never handed to Apply).
type Entry struct {
	Term uint64
	Cmd  []byte
}

// Protocol timing.
const (
	// electionTimeout is the base election timeout T; each arming
	// draws uniformly from [T, 2T).
	electionTimeout = 1500 * backend.Microsecond
	// heartbeat is the leader's AppendEntries period (also the
	// retransmission period for lagging followers).
	heartbeat = 150 * backend.Microsecond
)

// Config parameterizes a replica.
type Config struct {
	// Peers lists every replica's station, including this one. All
	// replicas must agree on the set (no membership change).
	Peers []wire.StationID
	// EP is the node's transport endpoint; its station identifies this
	// replica within Peers, its clock drives all timers.
	EP *transport.Endpoint
	// Seed perturbs the election-timeout PRNG so replicas with the
	// same config do not tie forever.
	Seed uint64
	// Apply consumes a committed command, in log order, exactly once
	// per (index, restart): after a crash the volatile applied cursor
	// resets and the log replays, so Apply must be idempotent.
	Apply func(index uint64, cmd []byte)
	// OnLeaderChange (optional) fires when this replica learns of a
	// new leader; self reports whether that leader is this replica.
	OnLeaderChange func(leader wire.StationID, self bool)
}

// Counters are monotonic per-replica event counts (survive Restart,
// reset only with a new Node).
type Counters struct {
	ElectionsStarted uint64 // timeouts that began a candidacy
	BecameLeader     uint64 // elections this replica won
	VotesGranted     uint64 // ballots granted to some candidate
	Proposals        uint64 // commands accepted while leader
	EntriesApplied   uint64 // log entries applied (incl. no-ops)
	FramesSent       uint64 // raft frames transmitted
}

// Node is one Raft replica. Create with New (which arms the election
// timer immediately), crash with Stop, revive with Restart.
type Node struct {
	cfg    Config
	ep     *transport.Endpoint
	clock  backend.Clock
	id     wire.StationID
	others []wire.StationID // peers minus self, in Peers order
	quorum int

	// Persistent state: survives Stop/Restart (models stable storage).
	currentTerm uint64
	voted       bool           // votedFor is only meaningful when set; station 0
	votedFor    wire.StationID // is wire.StationAny, so a flag is needed
	log         []Entry        // log[i] holds index i+1 (1-based protocol indexing)
	termsLed    []uint64       // every term this replica won — checker evidence

	// Volatile state: lost on Stop.
	running     bool
	state       State
	leader      wire.StationID // 0 = unknown
	commitIndex uint64
	lastApplied uint64
	termStart   uint64 // index of the no-op this replica appended on winning its term
	votes       map[wire.StationID]bool
	nextIndex   map[wire.StationID]uint64
	matchIndex  map[wire.StationID]uint64
	pending     map[uint64]func(index uint64, err error)

	electionTimer  backend.Timer
	heartbeatTimer backend.Timer
	rngState       uint64
	ctr            Counters
}

// New creates a replica and starts it as a follower with its election
// timer armed. The caller wires frames in with ep.Mux().Handle(
// wire.MsgRaft, node.HandleFrame).
func New(cfg Config) *Node {
	n := &Node{
		cfg:      cfg,
		ep:       cfg.EP,
		clock:    cfg.EP.Clock(),
		id:       cfg.EP.Station(),
		quorum:   len(cfg.Peers)/2 + 1,
		rngState: cfg.Seed ^ (uint64(cfg.EP.Station()) * 0x9e3779b97f4a7c15),
	}
	for _, p := range cfg.Peers {
		if p != n.id {
			n.others = append(n.others, p)
		}
	}
	n.resetVolatile()
	n.running = true
	n.resetElectionTimer()
	return n
}

func (n *Node) resetVolatile() {
	n.state = Follower
	n.leader = 0
	n.commitIndex = 0
	n.lastApplied = 0
	n.votes = make(map[wire.StationID]bool)
	n.nextIndex = make(map[wire.StationID]uint64)
	n.matchIndex = make(map[wire.StationID]uint64)
	n.pending = make(map[uint64]func(uint64, error))
}

// splitmix64: tiny deterministic PRNG for election jitter, so raft
// depends on neither math/rand nor the simulator's random source.
func (n *Node) rand() uint64 {
	n.rngState += 0x9e3779b97f4a7c15
	z := n.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// --- log accessors (1-based protocol indexing) ---

func (n *Node) lastLogIndex() uint64 { return uint64(len(n.log)) }

// termAt returns the term of log index i (0 for the sentinel index 0
// or anything beyond the log).
func (n *Node) termAt(i uint64) uint64 {
	if i == 0 || i > uint64(len(n.log)) {
		return 0
	}
	return n.log[i-1].Term
}

// --- timers ---

// Election and heartbeat timers are daemon timers: they perpetually
// re-arm, and must not keep Sim.Run from draining after a workload
// quiesces (see backend.DaemonClock).

func (n *Node) resetElectionTimer() {
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	d := electionTimeout + backend.Duration(n.rand()%uint64(electionTimeout))
	n.electionTimer = backend.AfterFuncDaemon(n.clock, d, n.onElectionTimeout)
}

func (n *Node) armHeartbeat() {
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
	}
	n.heartbeatTimer = backend.AfterFuncDaemon(n.clock, heartbeat, n.onHeartbeat)
}

func (n *Node) stopTimers() {
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
		n.heartbeatTimer = nil
	}
}

func (n *Node) onElectionTimeout() {
	if !n.running || n.state == Leader {
		return
	}
	n.startElection()
}

func (n *Node) onHeartbeat() {
	if !n.running || n.state != Leader {
		return
	}
	n.broadcastAppend()
	n.armHeartbeat()
}

// --- elections ---

func (n *Node) startElection() {
	n.state = Candidate
	n.currentTerm++
	n.voted = true
	n.votedFor = n.id
	n.leader = 0
	n.votes = map[wire.StationID]bool{n.id: true}
	n.ctr.ElectionsStarted++
	if len(n.votes) >= n.quorum { // single-replica degenerate case
		n.becomeLeader()
		return
	}
	req := encodeVote(voteMsg{
		term:         n.currentTerm,
		lastLogIndex: n.lastLogIndex(),
		lastLogTerm:  n.termAt(n.lastLogIndex()),
	})
	for _, p := range n.others {
		n.send(p, req)
	}
	n.resetElectionTimer()
}

func (n *Node) becomeLeader() {
	n.state = Leader
	n.ctr.BecameLeader++
	n.termsLed = append(n.termsLed, n.currentTerm)
	for _, p := range n.others {
		n.nextIndex[p] = n.lastLogIndex() + 1
		n.matchIndex[p] = 0
	}
	// Append a no-op so the new term has an entry to commit: committing
	// it transitively commits every earlier-term entry beneath it
	// (the §5.4.2 rule forbids counting replicas for old-term entries
	// directly).
	n.log = append(n.log, Entry{Term: n.currentTerm})
	n.termStart = n.lastLogIndex()
	n.advanceCommit()
	n.broadcastAppend()
	n.armHeartbeat()
	n.setLeader(n.id)
}

// stepDown moves to follower in term (which must be >= currentTerm).
// A deposed leader fails its in-flight proposals: they may yet commit
// under the new leader, but this replica can no longer promise it.
func (n *Node) stepDown(term uint64) {
	if term > n.currentTerm {
		n.currentTerm = term
		n.voted = false
		n.votedFor = 0
	}
	wasLeader := n.state == Leader
	n.state = Follower
	n.leader = 0
	n.votes = make(map[wire.StationID]bool)
	if n.heartbeatTimer != nil {
		n.heartbeatTimer.Stop()
		n.heartbeatTimer = nil
	}
	if wasLeader {
		n.failPending(ErrNotLeader)
	}
	n.resetElectionTimer()
}

func (n *Node) setLeader(l wire.StationID) {
	if n.leader == l {
		return
	}
	n.leader = l
	if n.cfg.OnLeaderChange != nil {
		n.cfg.OnLeaderChange(l, l == n.id)
	}
}

func (n *Node) failPending(err error) {
	if len(n.pending) == 0 {
		return
	}
	idxs := make([]uint64, 0, len(n.pending))
	for i := range n.pending {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	for _, i := range idxs {
		done := n.pending[i]
		delete(n.pending, i)
		done(i, err)
	}
}

// --- replication ---

func (n *Node) broadcastAppend() {
	for _, p := range n.others {
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(p wire.StationID) {
	ni := n.nextIndex[p]
	if ni < 1 {
		ni = 1
	}
	m := appendMsg{
		term:         n.currentTerm,
		prevLogIndex: ni - 1,
		prevLogTerm:  n.termAt(ni - 1),
		leaderCommit: n.commitIndex,
	}
	for i := ni; i <= n.lastLogIndex() && len(m.entries) < maxAppendEntries; i++ {
		m.entries = append(m.entries, n.log[i-1])
	}
	n.send(p, encodeAppend(m))
}

// advanceCommit moves commitIndex to the highest index replicated on
// a quorum whose entry is from the current term (§5.4.2: a leader
// never counts replicas to commit an old-term entry; the no-op it
// appended on election covers them transitively).
func (n *Node) advanceCommit() {
	for idx := n.lastLogIndex(); idx > n.commitIndex; idx-- {
		if n.termAt(idx) != n.currentTerm {
			break
		}
		count := 1 // self
		for _, p := range n.others {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= n.quorum {
			n.commitIndex = idx
			break
		}
	}
	n.applyEntries()
}

// applyEntries feeds newly committed commands to the state machine in
// log order, then resolves any proposal waiting on them.
func (n *Node) applyEntries() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		e := n.log[n.lastApplied-1]
		if len(e.Cmd) > 0 && n.cfg.Apply != nil {
			n.cfg.Apply(n.lastApplied, e.Cmd)
		}
		n.ctr.EntriesApplied++
		if done, ok := n.pending[n.lastApplied]; ok {
			delete(n.pending, n.lastApplied)
			done(n.lastApplied, nil)
		}
	}
}

// --- message handlers ---

// HandleFrame consumes MsgRaft frames; register it on the endpoint's
// mux. A stopped (crashed) replica silently swallows frames.
func (n *Node) HandleFrame(h *wire.Header, payload []byte) bool {
	if h.Type != wire.MsgRaft {
		return false
	}
	if !n.running || len(payload) == 0 {
		return true
	}
	src := h.Src
	switch payload[0] {
	case rmsgVote:
		if m, err := decodeVote(payload); err == nil {
			n.handleVote(src, m)
		}
	case rmsgVoteReply:
		if m, err := decodeVoteReply(payload); err == nil {
			n.handleVoteReply(src, m)
		}
	case rmsgAppend:
		if m, err := decodeAppend(payload); err == nil {
			n.handleAppend(src, m)
		}
	case rmsgAppendReply:
		if m, err := decodeAppendReply(payload); err == nil {
			n.handleAppendReply(src, m)
		}
	}
	return true
}

func (n *Node) handleVote(src wire.StationID, m voteMsg) {
	if m.term > n.currentTerm {
		n.stepDown(m.term)
	}
	granted := false
	if m.term == n.currentTerm && (!n.voted || n.votedFor == src) && n.logUpToDate(m) {
		granted = true
		n.voted = true
		n.votedFor = src
		n.ctr.VotesGranted++
		n.resetElectionTimer()
	}
	n.send(src, encodeVoteReply(voteReplyMsg{term: n.currentTerm, granted: granted}))
}

// logUpToDate implements the §5.4.1 election restriction: grant only
// to candidates whose log is at least as complete as ours.
func (n *Node) logUpToDate(m voteMsg) bool {
	lastTerm := n.termAt(n.lastLogIndex())
	if m.lastLogTerm != lastTerm {
		return m.lastLogTerm > lastTerm
	}
	return m.lastLogIndex >= n.lastLogIndex()
}

func (n *Node) handleVoteReply(src wire.StationID, m voteReplyMsg) {
	if m.term > n.currentTerm {
		n.stepDown(m.term)
		return
	}
	if n.state != Candidate || m.term != n.currentTerm || !m.granted {
		return
	}
	n.votes[src] = true
	if len(n.votes) >= n.quorum {
		n.becomeLeader()
	}
}

func (n *Node) handleAppend(src wire.StationID, m appendMsg) {
	if m.term < n.currentTerm {
		n.send(src, encodeAppendReply(appendReplyMsg{
			term: n.currentTerm, success: false, matchIndex: n.lastLogIndex(),
		}))
		return
	}
	if m.term > n.currentTerm || n.state != Follower {
		n.stepDown(m.term)
	}
	n.setLeader(src)
	n.resetElectionTimer()

	// Consistency check: our log must contain the anchor entry.
	if m.prevLogIndex > n.lastLogIndex() || n.termAt(m.prevLogIndex) != m.prevLogTerm {
		hint := n.lastLogIndex()
		if hint >= m.prevLogIndex && m.prevLogIndex > 0 {
			hint = m.prevLogIndex - 1 // anchor term conflicts: back past it
		}
		n.send(src, encodeAppendReply(appendReplyMsg{
			term: n.currentTerm, success: false, matchIndex: hint,
		}))
		return
	}

	// Append, truncating on the first conflict; entries we already
	// hold with matching terms are left in place (the frame may be a
	// duplicate — Send is unreliable and heartbeats retransmit).
	for i, e := range m.entries {
		idx := m.prevLogIndex + 1 + uint64(i)
		if idx <= n.lastLogIndex() {
			if n.termAt(idx) == e.Term {
				continue
			}
			n.log = n.log[:idx-1]
		}
		n.log = append(n.log, e)
	}
	match := m.prevLogIndex + uint64(len(m.entries))
	if m.leaderCommit > n.commitIndex {
		ci := m.leaderCommit
		if last := n.lastLogIndex(); ci > last {
			ci = last
		}
		n.commitIndex = ci
		n.applyEntries()
	}
	n.send(src, encodeAppendReply(appendReplyMsg{
		term: n.currentTerm, success: true, matchIndex: match,
	}))
}

func (n *Node) handleAppendReply(src wire.StationID, m appendReplyMsg) {
	if m.term > n.currentTerm {
		n.stepDown(m.term)
		return
	}
	if n.state != Leader || m.term != n.currentTerm {
		return
	}
	if m.success {
		if m.matchIndex > n.matchIndex[src] {
			n.matchIndex[src] = m.matchIndex
		}
		n.nextIndex[src] = n.matchIndex[src] + 1
		n.advanceCommit()
		if n.state == Leader && n.nextIndex[src] <= n.lastLogIndex() {
			n.sendAppend(src) // keep streaming catch-up batches
		}
		return
	}
	// Rejected: back off nextIndex using the follower's hint and retry
	// immediately (the heartbeat would retry anyway, this is faster).
	ni := n.nextIndex[src]
	if ni > 1 {
		ni--
	}
	if h := m.matchIndex + 1; h < ni {
		ni = h
	}
	if ni < 1 {
		ni = 1
	}
	n.nextIndex[src] = ni
	n.sendAppend(src)
}

// --- client interface ---

// Propose submits a command for replication. done (optional) fires
// with the entry's log index once the entry commits and has been
// applied, or with an error wrapping gasperr.ErrNotLeader — possibly
// synchronously — if this replica is not (or ceases to be) the
// leader. A proposal that fails with ErrNotLeader may still commit
// under the next leader; proposers needing exactly-once must make
// commands idempotent (the controller's are: announce is a map put).
func (n *Node) Propose(cmd []byte, done func(index uint64, err error)) {
	if !n.running || n.state != Leader {
		if done != nil {
			done(0, ErrNotLeader)
		}
		return
	}
	n.ctr.Proposals++
	n.log = append(n.log, Entry{Term: n.currentTerm, Cmd: cmd})
	idx := n.lastLogIndex()
	if done != nil {
		n.pending[idx] = done
	}
	n.advanceCommit() // commits immediately when quorum == 1
	if n.state == Leader {
		n.broadcastAppend()
	}
}

// Stop crashes the replica: volatile state (role, leadership, commit
// and applied cursors, in-flight proposals) is lost; persistent state
// (term, vote, log, termsLed) survives for Restart. The owner of the
// applied state machine must discard it too, so replay from index 1
// reconstructs it.
func (n *Node) Stop() {
	if !n.running {
		return
	}
	n.running = false
	n.stopTimers()
	n.failPending(ErrNotLeader)
	n.resetVolatile()
}

// Restart revives a stopped replica as a follower. The log replays
// into Apply as the commit index re-advances.
func (n *Node) Restart() {
	if n.running {
		return
	}
	n.running = true
	n.resetVolatile()
	n.resetElectionTimer()
}

// --- accessors ---

// ID returns this replica's station.
func (n *Node) ID() wire.StationID { return n.id }

// Running reports whether the replica is alive (not crashed).
func (n *Node) Running() bool { return n.running }

// State returns the replica's current role.
func (n *Node) State() State { return n.state }

// ReadReady reports whether this replica's applied state may answer a
// read: it leads, and it has applied the no-op it appended on winning
// its term. Until that entry commits a fresh leader cannot know which
// of the entries it holds are committed (Raft §8), so its state machine
// may still lack entries the previous leader acknowledged.
func (n *Node) ReadReady() bool {
	return n.running && n.state == Leader && n.lastApplied >= n.termStart
}

// Term returns the replica's current term.
func (n *Node) Term() uint64 { return n.currentTerm }

// Leader returns the station this replica believes leads, and whether
// it knows one at all.
func (n *Node) Leader() (wire.StationID, bool) { return n.leader, n.leader != 0 }

// CommitIndex returns the highest log index known committed.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// LastApplied returns the highest log index fed to Apply.
func (n *Node) LastApplied() uint64 { return n.lastApplied }

// EntryInfo returns the term and a content digest (FNV-64a over the
// command) of log index i, for cross-replica prefix comparison by the
// invariant checker.
func (n *Node) EntryInfo(i uint64) (term, digest uint64, ok bool) {
	if i == 0 || i > n.lastLogIndex() {
		return 0, 0, false
	}
	e := n.log[i-1]
	d := uint64(14695981039346656037)
	for _, b := range e.Cmd {
		d ^= uint64(b)
		d *= 1099511628211
	}
	return e.Term, d, true
}

// TermsLed returns a copy of every term this replica has won,
// including terms led before a crash: the checker unions these across
// replicas to verify at-most-one-leader-per-term.
func (n *Node) TermsLed() []uint64 {
	out := make([]uint64, len(n.termsLed))
	copy(out, n.termsLed)
	return out
}

// Counters returns the replica's monotonic event counts.
func (n *Node) Counters() Counters { return n.ctr }
