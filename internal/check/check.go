// Package check is the protocol invariant checker: a passive observer
// that watches a core.Cluster for violations of the global-address-
// space safety properties the paper's design depends on, and an
// explorer (explore.go) that perturbs frame schedules to flush out the
// protocol bugs that only fire under duplication, loss, and reorder.
//
// DESIGN §5 states the model the checker holds every coherence.Record
// to — one state per object and one step function, step — and lists
// the invariants, checked per record and, by CheckNow, at quiescence.
//
// The walk reads only side-effect-free accessors, so a checker observes
// a run without perturbing LRU order, timers or the seeded schedule,
// and a cluster nobody called New on has no observer installed and runs
// bit-identically to an uncheckered build.
package check

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/oid"
	"repro/internal/wire"
)

// Invariant names, as they appear in Violation.Invariant.
const (
	InvSingleHome        = "single-home"
	InvSingleExclusive   = "single-exclusive"
	InvToldExclusive     = "told-exclusive"
	InvDirectoryCoverage = "directory-coverage"
	InvVersionMonotonic  = "version-monotonic"
	InvHomeRewrite       = "home-rewrite"
	InvCopyVersionAhead  = "copy-version-ahead"
	InvCopyDivergence    = "copy-divergence"
	InvStaleRead         = "stale-read"
	InvFetchStuck        = "fetch-stuck"
	InvFetchDrain        = "fetch-drain"
	InvBufBalance        = "buf-balance"
)

// Violation is one invariant breach, deduplicated per (invariant,
// object) pair for the life of the checker.
type Violation struct {
	At        netsim.Time
	Invariant string
	Object    oid.ID
	Detail    string
	// Trace is the trace ID of the operation whose record revealed the
	// breach: 0 for a quiescent one, or when tracing did not sample it.
	Trace uint64
}

func (v Violation) String() string {
	obj := "-"
	if !v.Object.IsNil() {
		obj = v.Object.Short()
	}
	return fmt.Sprintf("[%v] %s obj=%s: %s", v.At, v.Invariant, obj, v.Detail)
}

type vioKey struct {
	invariant string
	object    oid.ID
}

// fetchBound is the longest an acquire may take from invoke to
// response — comfortably past the coherence stall watchdog.
const fetchBound = 20 * netsim.Millisecond

// model is the checker's state of one object, the one DESIGN §5
// defines: what its home published — the top version and the digest of
// each version's bytes — and what each station was promised.
type model struct {
	top       uint64
	published map[uint64]uint64
	stations  map[wire.StationID]*promise
}

// promise is one station's part of an object's model: no read or
// shared acquire it invokes at or after since may return a version
// below floor, and while it holds the exclusive claim its copy's bytes
// are its own to change and, unless its grant was revoked — the home
// sent it an invalidate since — its node holds an exclusive grant.
type promise struct {
	floor   uint64
	since   netsim.Time
	excl    bool
	revoked bool
	lapsed  bool // a failed write or release ended the claim: the grant may outlive it
}

// Checker observes one cluster. Create with New; it is not safe for
// concurrent use (the simulator is single-threaded, so this never
// comes up in practice).
type Checker struct {
	c       *core.Cluster
	now     func() netsim.Time
	bufBase int64

	objects map[oid.ID]*model // every object named since the last Epoch
	epochAt netsim.Time

	// raftCommitted is the checker's own durable record of every
	// committed control-plane log entry it has ever observed — the
	// ground truth for the committed-never-lost invariant.
	raftCommitted map[uint64]raftEntryRec

	seen       map[vioKey]bool
	violations []Violation
}

// New builds a checker for c: it installs an observer on every node's
// coherence engine, snapshots the live-buffer baseline, and records the
// homes' current versions and digests. It panics on a realnet cluster,
// whose schedules it could not replay.
func New(c *core.Cluster) *Checker {
	if c.Sim == nil {
		panic("check: the invariant checker is sim-only (it explores deterministic schedules)")
	}
	k := newChecker(c.Sim.Now)
	k.c, k.bufBase = c, dataplane.LiveBufs()
	for _, n := range c.Nodes {
		n.Coherence.AddObserver(k.step)
	}
	k.walk(false)
	return k
}

// newChecker builds a checker that watches no cluster: the records
// handed to step are all it sees.
func newChecker(now func() netsim.Time) *Checker {
	k := &Checker{now: now, raftCommitted: make(map[uint64]raftEntryRec), seen: make(map[vioKey]bool)}
	k.Epoch()
	return k
}

// CheckNow walks the cluster once for the invariants that only hold at
// quiescence. Call it when the simulator has drained.
func (k *Checker) CheckNow() {
	k.walk(true)
	k.ScanRaft()
}

// Epoch resets every object's model while keeping recorded violations.
// Scenarios call it when a fault legitimately rewinds history: a home
// crash followed by replica promotion republishes at a rebuilt version.
func (k *Checker) Epoch() {
	k.objects = make(map[oid.ID]*model)
	k.epochAt = k.now()
}

// Violations returns the recorded violations in detection order.
func (k *Checker) Violations() []Violation { return k.violations }

// Ok reports whether no invariant has been violated.
func (k *Checker) Ok() bool { return len(k.violations) == 0 }

func (k *Checker) report(at netsim.Time, invariant string, obj oid.ID, tr uint64, detail string) {
	key := vioKey{invariant, obj}
	if k.seen[key] {
		return
	}
	k.seen[key] = true
	k.violations = append(k.violations, Violation{At: at, Invariant: invariant, Object: obj, Detail: detail, Trace: tr})
}

// digestSeed keys every digest of the process: digests are compared,
// never printed, so a fresh seed per process changes no output.
var digestSeed = maphash.MakeSeed()

func digestOf(b []byte) uint64 { return maphash.Bytes(digestSeed, b) }

// model returns obj's model, creating an empty one.
func (k *Checker) model(obj oid.ID) *model {
	m := k.objects[obj]
	if m == nil {
		m = &model{published: make(map[uint64]uint64), stations: make(map[wire.StationID]*promise)}
		k.objects[obj] = m
	}
	return m
}

// promise returns st's part of m, creating an empty one.
func (m *model) promise(st wire.StationID) *promise {
	p := m.stations[st]
	if p == nil {
		p = new(promise)
		m.stations[st] = p
	}
	return p
}

// step is the model's step function: it folds one record into its
// object's model and reports every invariant the record breaks. A
// failed operation returned no version, and the history before the last
// Epoch is discarded: such a record moves only the claim.
func (k *Checker) step(r coherence.Record) {
	m := k.model(r.Obj)
	if r.Kind == coherence.RecPublish {
		if r.Err == nil && r.Invoke >= k.epochAt {
			k.publish(m, r.Response, r.Station, r.Obj, r.Version, r.Bytes, r.Trace)
		}
		// A home publishes after it sent every sharer but the writer an
		// invalidate: it counts no grant held now.
		for _, q := range m.stations {
			q.revoked = true
		}
		return
	}
	p := m.promise(r.Station)
	// The claim rule, whatever the record's error: a successful
	// exclusive acquire takes the claim, a read or a shared acquire keeps
	// it, and every other record ends it — a failed write or release too,
	// since a timeout leaves unknown whether the home applied it.
	claimed := p.excl
	p.excl = r.Kind == coherence.RecAcquireExclusive && r.Err == nil ||
		claimed && (r.Kind == coherence.RecRead || r.Kind == coherence.RecAcquireShared)
	p.lapsed = !p.excl && (p.lapsed || claimed && r.Err != nil && (r.Kind == coherence.RecWrite || r.Kind == coherence.RecRelease))
	// A home grants exclusive after it sent every other sharer an
	// invalidate: a claim revokes every other grant, and one on a version
	// below the top was revoked before it completed.
	if p.excl && !claimed {
		for _, q := range m.stations {
			q.revoked = q != p
		}
		p.revoked = len(m.published) > 0 && r.Version < m.top
	}
	if r.Err != nil || r.Invoke < k.epochAt {
		return
	}
	v := r.Version
	switch r.Kind {
	case coherence.RecInvalidateAck:
		// The home published a newer version before it sent the
		// invalidate, so the dropped copy was stale: nothing this station
		// invokes from now on may read it again.
		if len(m.published) > 0 && v > 0 && v < m.top {
			v++
		}
	case coherence.RecRead, coherence.RecAcquireShared, coherence.RecAcquireExclusive:
		if len(m.published) > 0 && v > m.top {
			k.report(r.Response, InvCopyVersionAhead, r.Obj, r.Trace,
				fmt.Sprintf("station %d's %s returned version %d but the home has published only up to %d",
					r.Station, r.Kind, v, m.top))
		}
		if r.Kind != coherence.RecAcquireExclusive && r.Invoke >= p.since && v < p.floor {
			k.report(r.Response, InvStaleRead, r.Obj, r.Trace,
				fmt.Sprintf("station %d's %s invoked at %v returned version %d, older than version %d it had seen by %v",
					r.Station, r.Kind, r.Invoke, v, p.floor, p.since))
		}
		if d := r.Response.Sub(r.Invoke); r.Kind != coherence.RecRead && d > fetchBound {
			k.report(r.Response, InvFetchStuck, r.Obj, r.Trace,
				fmt.Sprintf("station %d's %s took %v (bound %v)", r.Station, r.Kind, d, fetchBound))
		}
		// Unless the station held the claim, an acquire's copy is what
		// the home published under the grant's version.
		if want, ok := m.published[v]; r.Kind != coherence.RecRead && !claimed && ok && digestOf(r.Bytes) != want {
			k.report(r.Response, InvCopyDivergence, r.Obj, r.Trace,
				fmt.Sprintf("station %d's copy labeled version %d is not what the home published under that version — corrupt or torn transfer",
					r.Station, v))
		}
	}
	if v > p.floor {
		p.floor, p.since = v, r.Response
	}
}

// publish folds a home's version of obj into its model: versions never
// fall, and a published version's bytes never change.
func (k *Checker) publish(m *model, at netsim.Time, st wire.StationID, obj oid.ID, v uint64, b []byte, tr uint64) {
	if len(m.published) > 0 && v < m.top {
		k.report(at, InvVersionMonotonic, obj, tr,
			fmt.Sprintf("home station %d at version %d after version %d was published", st, v, m.top))
	} else {
		m.top = v
	}
	d := digestOf(b)
	if prev, ok := m.published[v]; ok && prev != d {
		k.report(at, InvHomeRewrite, obj, tr,
			fmt.Sprintf("home station %d rewrote content under already-published version %d", st, v))
	}
	m.published[v] = d
}

// walk reads every live node's store once, folding each home copy into
// the version history; quiescent adds the invariants that hold only
// once the simulator has drained.
func (k *Checker) walk(quiescent bool) {
	now := k.now()
	homes := make(map[oid.ID][]*core.Node)
	for _, n := range k.c.Nodes {
		if n.Down() {
			continue
		}
		for _, id := range n.Store.HomeList() {
			if e, ok := n.Store.Peek(id); ok {
				homes[id] = append(homes[id], n)
				k.publish(k.model(id), now, n.Station, id, e.Version, e.Obj.Bytes(), 0)
			}
		}
	}
	if !quiescent {
		return
	}
	exclusive := make(map[oid.ID]int)
	for _, n := range k.c.Nodes {
		if n.Down() {
			continue
		}
		for _, id := range n.Store.List() {
			e, ok := n.Store.Peek(id)
			if !ok || e.Home {
				continue
			}
			p := k.model(id).promise(n.Station)
			if n.Coherence.GrantedPerm(id) == memproto.PermExclusive && !p.revoked {
				exclusive[id]++
			}
			// The floor binds the copy the station's next read returns.
			if e.Version < p.floor {
				k.report(now, InvStaleRead, id, 0,
					fmt.Sprintf("station %d holds a copy labeled version %d, older than version %d it had seen — its next read goes back in time",
						n.Station, e.Version, p.floor))
			}
			if hs := homes[id]; len(hs) == 1 && !slices.Contains(hs[0].Coherence.SharerSet(id), n.Station) {
				k.report(now, InvDirectoryCoverage, id, 0,
					fmt.Sprintf("station %d holds a copy absent from home station %d's sharer set — a stale copy the home can no longer invalidate",
						n.Station, hs[0].Station))
			}
		}
		for _, id := range n.Coherence.PendingFetches() {
			k.report(now, InvFetchDrain, id, 0, fmt.Sprintf("station %d still has a fetch in flight at quiescence", n.Station))
		}
	}
	for _, id := range slices.SortedFunc(maps.Keys(homes), oid.ID.Compare) {
		if hs := homes[id]; len(hs) > 1 {
			k.report(now, InvSingleHome, id, 0, fmt.Sprintf("%d live nodes claim the authoritative copy", len(hs)))
		}
	}
	for _, id := range slices.SortedFunc(maps.Keys(exclusive), oid.ID.Compare) {
		if n := exclusive[id]; n > 1 {
			k.report(now, InvSingleExclusive, id, 0, fmt.Sprintf("%d nodes hold exclusive permission simultaneously", n))
		}
	}
	k.toldExclusive(now)
	if live := dataplane.LiveBufs(); live != k.bufBase {
		k.report(now, InvBufBalance, oid.ID{}, 0,
			fmt.Sprintf("%d frame buffers live at quiescence, baseline %d — a frame path leaked or double-released", live, k.bufBase))
	}
}

// toldExclusive checks that every station holding an exclusive claim on
// a grant its home still counts holds an exclusive grant on its live
// node, and conversely, unless its claim lapsed. A home holds its
// object by authority, not by a grant.
func (k *Checker) toldExclusive(now netsim.Time) {
	for _, obj := range slices.SortedFunc(maps.Keys(k.objects), oid.ID.Compare) {
		for _, n := range k.c.Nodes {
			p := k.objects[obj].promise(n.Station)
			if e, ok := n.Store.Peek(obj); n.Down() || ok && e.Home {
				continue
			}
			if g := n.Coherence.GrantedPerm(obj); p.excl && !p.revoked && g != memproto.PermExclusive || !p.excl && !p.lapsed && g == memproto.PermExclusive {
				k.report(now, InvToldExclusive, obj, 0,
					fmt.Sprintf("station %d's exclusive claim is %v, but its node holds %v", n.Station, p.excl, g))
			}
		}
	}
}
